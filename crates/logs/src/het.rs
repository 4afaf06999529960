//! Hardware Event Tracker (HET) records.
//!
//! On Astra, uncorrectable memory errors are "recorded via a machine check
//! and logged to the syslog or serial console depending on the severity"
//! (§2.3), surfaced through the Hardware Event Tracker. Figure 15 plots
//! HET event counts by kind; the NON-RECOVERABLE subset (Fig 15b) is the
//! two uncorrectable-memory kinds. HET recording only began after an
//! August 2019 firmware update, which the simulator models as a gate.

use astra_topology::{DimmSlot, NodeId};
use astra_util::Minute;

use crate::kv;
use crate::quarantine::{LineFormat, QuarantineReason};

/// Kinds of HET event, matching the legend of Fig 15a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HetKind {
    /// Power-supply redundancy lost.
    RedundancyLost,
    /// Upper-critical threshold crossing.
    UcGoingHigh,
    /// Power supply failure cleared.
    PowerSupplyFailureDeasserted,
    /// Upper non-recoverable threshold crossing.
    UnrGoingHigh,
    /// Uncorrectable ECC memory error (a DUE).
    UncorrectableEcc,
    /// Power supply failure detected.
    PowerSupplyFailureDetected,
    /// Uncorrectable machine-check exception (a DUE).
    UncorrectableMce,
    /// Redundancy degraded: insufficient resources.
    RedundancyInsufficient,
}

impl HetKind {
    /// All kinds, in the order of the Fig 15a legend.
    pub const ALL: [HetKind; 8] = [
        HetKind::RedundancyLost,
        HetKind::UcGoingHigh,
        HetKind::PowerSupplyFailureDeasserted,
        HetKind::UnrGoingHigh,
        HetKind::UncorrectableEcc,
        HetKind::PowerSupplyFailureDetected,
        HetKind::UncorrectableMce,
        HetKind::RedundancyInsufficient,
    ];

    /// Event-name token used in the log format (mirrors the paper's
    /// figure legend, including its spelling).
    pub fn name(self) -> &'static str {
        match self {
            HetKind::RedundancyLost => "redundacyLost",
            HetKind::UcGoingHigh => "ucGoingHigh",
            HetKind::PowerSupplyFailureDeasserted => "powerSupplyFailureDetectedDeasserted",
            HetKind::UnrGoingHigh => "unrGoingHigh",
            HetKind::UncorrectableEcc => "uncorrectableECC",
            HetKind::PowerSupplyFailureDetected => "powerSupplyFailureDetected",
            HetKind::UncorrectableMce => "uncorrectableMachineCheckException",
            HetKind::RedundancyInsufficient => "redundacyNeInsufficientResources",
        }
    }

    /// Parse the token produced by [`HetKind::name`].
    pub fn parse_name(s: impl AsRef<[u8]>) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().as_bytes() == s.as_ref())
    }

    /// The severity the tracker assigns to this kind.
    pub fn severity(self) -> HetSeverity {
        match self {
            HetKind::UncorrectableEcc | HetKind::UncorrectableMce => HetSeverity::NonRecoverable,
            HetKind::UnrGoingHigh | HetKind::PowerSupplyFailureDetected => HetSeverity::Critical,
            _ => HetSeverity::Warning,
        }
    }

    /// Whether this kind is a detected uncorrectable memory error (DUE) —
    /// the events that enter the FIT-rate computation of §3.5.
    pub fn is_memory_due(self) -> bool {
        matches!(self, HetKind::UncorrectableEcc | HetKind::UncorrectableMce)
    }
}

/// Severity levels recorded by the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HetSeverity {
    /// Informational / warning events.
    Warning,
    /// Critical but recoverable.
    Critical,
    /// `NON-RECOVERABLE` — the Fig 15b subset.
    NonRecoverable,
}

impl HetSeverity {
    /// Token used in the log format.
    pub fn name(self) -> &'static str {
        match self {
            HetSeverity::Warning => "WARNING",
            HetSeverity::Critical => "CRITICAL",
            HetSeverity::NonRecoverable => "NON-RECOVERABLE",
        }
    }

    /// Parse the token produced by [`HetSeverity::name`].
    pub fn parse_name(s: impl AsRef<[u8]>) -> Option<Self> {
        match s.as_ref() {
            b"WARNING" => Some(HetSeverity::Warning),
            b"CRITICAL" => Some(HetSeverity::Critical),
            b"NON-RECOVERABLE" => Some(HetSeverity::NonRecoverable),
            _ => None,
        }
    }
}

/// One HET record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HetRecord {
    /// Event time.
    pub time: Minute,
    /// Reporting node.
    pub node: NodeId,
    /// Event kind.
    pub kind: HetKind,
    /// Recorded severity.
    pub severity: HetSeverity,
    /// For memory DUEs, the DIMM slot involved (absent for non-memory
    /// events).
    pub slot: Option<DimmSlot>,
}

impl HetRecord {
    /// Serialize to the one-line HET format.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(72);
        self.to_line_into(&mut line);
        line
    }

    /// Append the one-line HET form to `out` (buffer-reuse variant of
    /// [`HetRecord::to_line`]).
    pub fn to_line_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        write!(
            out,
            "{} {} HET: event={} severity={}",
            self.time.rfc3339(),
            self.node,
            self.kind.name(),
            self.severity.name(),
        )
        .expect("write to String cannot fail");
        if let Some(s) = self.slot {
            write!(out, " slot={s}").expect("write to String cannot fail");
        }
    }

    /// Parse a line produced by [`HetRecord::to_line`], in one pass over
    /// its bytes.
    pub fn parse_line(line: &str) -> Option<Self> {
        let (ts, node, tail) = kv::split_line(line.as_bytes(), b"HET")?;
        let [event, severity, slot] = kv::fields(tail, &[b"event", b"severity", b"slot"]);
        let slot = match slot {
            Some(s) => Some(kv::parse_slot(s)?),
            None => None,
        };
        Some(HetRecord {
            time: Minute::parse_rfc3339(ts)?,
            node: NodeId(kv::parse_node(node)?),
            kind: HetKind::parse_name(event?)?,
            severity: HetSeverity::parse_name(severity?)?,
            slot,
        })
    }

    /// Classify a line [`HetRecord::parse_line`] rejected (see
    /// [`crate::ce::CeRecord::classify_bad_line`] for the heuristic).
    pub fn classify_bad_line(line: &str) -> QuarantineReason {
        if !line.contains(" HET:") {
            return QuarantineReason::UnknownFormat;
        }
        if line.contains("event=") && line.contains("severity=") {
            QuarantineReason::FieldOutOfRange
        } else {
            QuarantineReason::Truncated
        }
    }
}

fn order_key(r: &HetRecord) -> i64 {
    r.time.0
}

/// Ingest descriptor for `het.log`: time-sorted, one record per line.
pub const FORMAT: LineFormat<HetRecord> = LineFormat {
    parse: HetRecord::parse_line,
    classify: HetRecord::classify_bad_line,
    order_key: Some(order_key),
};

#[cfg(test)]
mod tests {
    use super::*;
    use astra_util::CalDate;

    fn sample() -> HetRecord {
        HetRecord {
            time: CalDate::new(2019, 8, 25).midnight().plus(190),
            node: NodeId(12),
            kind: HetKind::UncorrectableEcc,
            severity: HetSeverity::NonRecoverable,
            slot: Some(DimmSlot::from_letter('D').unwrap()),
        }
    }

    #[test]
    fn roundtrip_with_slot() {
        let rec = sample();
        assert_eq!(HetRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn roundtrip_without_slot() {
        let rec = HetRecord {
            kind: HetKind::RedundancyLost,
            severity: HetSeverity::Warning,
            slot: None,
            ..sample()
        };
        assert_eq!(HetRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn line_shape() {
        assert_eq!(
            sample().to_line(),
            "2019-08-25T03:10:00 node0012 HET: event=uncorrectableECC \
             severity=NON-RECOVERABLE slot=D"
        );
    }

    #[test]
    fn all_kinds_roundtrip_names() {
        for kind in HetKind::ALL {
            assert_eq!(HetKind::parse_name(kind.name()), Some(kind));
        }
        assert_eq!(HetKind::parse_name("nonsense"), None);
    }

    #[test]
    fn due_kinds_are_non_recoverable() {
        for kind in HetKind::ALL {
            assert_eq!(
                kind.is_memory_due(),
                kind.severity() == HetSeverity::NonRecoverable,
            );
        }
    }

    #[test]
    fn classifier_taxonomy() {
        let good = sample().to_line();
        assert_eq!(
            HetRecord::classify_bad_line(&good.replace(" severity=NON-RECOVERABLE slot=D", "")),
            QuarantineReason::Truncated
        );
        assert_eq!(
            HetRecord::classify_bad_line(&good.replace("NON-RECOVERABLE", "FATAL")),
            QuarantineReason::FieldOutOfRange
        );
        assert_eq!(
            HetRecord::classify_bad_line("kernel: unrelated chatter"),
            QuarantineReason::UnknownFormat
        );
    }

    /// Differential against the `str` parser it replaced (see
    /// `crate::oracle`).
    #[test]
    fn matches_the_oracle_on_a_mutation_corpus() {
        let bases: Vec<String> = [
            sample(),
            HetRecord {
                kind: HetKind::RedundancyLost,
                severity: HetSeverity::Warning,
                slot: None,
                ..sample()
            },
            HetRecord {
                time: CalDate::new(2019, 2, 28).midnight().plus(23 * 60 + 59),
                kind: HetKind::UnrGoingHigh,
                severity: HetSeverity::Critical,
                slot: Some(DimmSlot::from_letter('P').unwrap()),
                ..sample()
            },
        ]
        .iter()
        .map(HetRecord::to_line)
        .collect();
        let (checked, refused) = crate::oracle::check_corpus(
            &bases,
            HetRecord::parse_line,
            crate::oracle::parse_het,
            PartialEq::eq,
        );
        assert!(
            checked > 50_000 && refused > 0,
            "{checked} lines, {refused} refused"
        );
    }

    #[test]
    fn rejects_foreign_lines() {
        assert_eq!(HetRecord::parse_line("x"), None);
        assert_eq!(
            HetRecord::parse_line(
                "2019-08-25T03:10:00 node0012 kernel: EDAC MC0: CE slot=E rank=1"
            ),
            None
        );
        let bad = sample().to_line().replace("NON-RECOVERABLE", "FATAL");
        assert_eq!(HetRecord::parse_line(&bad), None);
    }
}
