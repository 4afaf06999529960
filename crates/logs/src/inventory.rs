//! Inventory-scan component replacement records.
//!
//! Table 1 and Figure 3 of the paper come from "analyzing the site's daily
//! inventory scan logs": a component replacement is detected when a part's
//! serial number changes between consecutive daily scans. The record here
//! is the distilled event — date, node, and which component was swapped.

use astra_topology::{DimmSlot, NodeId, SocketId};
use astra_util::{ascii, CalDate};

use crate::kv;
use crate::quarantine::{LineFormat, QuarantineReason};

/// Which component was replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A ThunderX2 processor (socket 0 or 1).
    Processor(SocketId),
    /// The node motherboard.
    Motherboard,
    /// A DIMM in the given slot.
    Dimm(DimmSlot),
}

impl Component {
    /// Category label used in Table 1.
    pub fn category(&self) -> &'static str {
        match self {
            Component::Processor(_) => "Processors",
            Component::Motherboard => "Motherboards",
            Component::Dimm(_) => "DIMMs",
        }
    }

    /// Stable index for array-based tallies (processor/motherboard/DIMM).
    pub fn category_index(&self) -> usize {
        match self {
            Component::Processor(_) => 0,
            Component::Motherboard => 1,
            Component::Dimm(_) => 2,
        }
    }
}

/// One replacement event, as distilled from consecutive inventory scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplacementRecord {
    /// Scan date on which the replacement was detected.
    pub date: CalDate,
    /// Node whose component changed.
    pub node: NodeId,
    /// The replaced component.
    pub component: Component,
}

impl ReplacementRecord {
    /// Serialize to the one-line inventory format.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(64);
        self.to_line_into(&mut line);
        line
    }

    /// Append the one-line inventory form to `out` (buffer-reuse variant
    /// of [`ReplacementRecord::to_line`]).
    pub fn to_line_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        write!(out, "{} {} inventory: ", self.date, self.node).expect("write to String");
        match self.component {
            Component::Processor(s) => write!(out, "component=processor socket={}", s.0),
            Component::Motherboard => write!(out, "component=motherboard"),
            Component::Dimm(slot) => write!(out, "component=dimm slot={slot}"),
        }
        .expect("write to String cannot fail");
    }

    /// Parse a line produced by [`ReplacementRecord::to_line`], in one
    /// pass over its bytes. A date that no calendar has (`2019-02-30`)
    /// is `None`, like any other bad field.
    pub fn parse_line(line: &str) -> Option<Self> {
        let (date, node, tail) = kv::split_line(line.as_bytes(), b"inventory")?;
        let [component, socket, slot] = kv::fields(tail, &[b"component", b"socket", b"slot"]);
        let component = match component? {
            b"processor" => {
                let s: u8 = ascii::dec_uint(socket?)?;
                if s > 1 {
                    return None;
                }
                Component::Processor(SocketId(s))
            }
            b"motherboard" => Component::Motherboard,
            b"dimm" => Component::Dimm(kv::parse_slot(slot?)?),
            _ => return None,
        };
        Some(ReplacementRecord {
            date: CalDate::parse(date)?,
            node: NodeId(kv::parse_node(node)?),
            component,
        })
    }

    /// Classify a line [`ReplacementRecord::parse_line`] rejected (see
    /// [`crate::ce::CeRecord::classify_bad_line`] for the heuristic).
    pub fn classify_bad_line(line: &str) -> QuarantineReason {
        if !line.contains(" inventory:") {
            return QuarantineReason::UnknownFormat;
        }
        // Which extra token the named component requires.
        let complete = if line.contains("component=processor") {
            line.contains("socket=")
        } else if line.contains("component=dimm") {
            line.contains("slot=")
        } else {
            line.contains("component=")
        };
        if complete {
            QuarantineReason::FieldOutOfRange
        } else {
            QuarantineReason::Truncated
        }
    }
}

fn order_key(r: &ReplacementRecord) -> i64 {
    r.date.midnight().0
}

/// Ingest descriptor for `inventory.log`: date-sorted, one record per
/// line.
pub const FORMAT: LineFormat<ReplacementRecord> = LineFormat {
    parse: ReplacementRecord::parse_line,
    classify: ReplacementRecord::classify_bad_line,
    order_key: Some(order_key),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_components() {
        let records = [
            ReplacementRecord {
                date: CalDate::new(2019, 2, 18),
                node: NodeId(5),
                component: Component::Processor(SocketId(1)),
            },
            ReplacementRecord {
                date: CalDate::new(2019, 6, 1),
                node: NodeId(2591),
                component: Component::Motherboard,
            },
            ReplacementRecord {
                date: CalDate::new(2019, 9, 17),
                node: NodeId(100),
                component: Component::Dimm(DimmSlot::from_letter('J').unwrap()),
            },
        ];
        for rec in records {
            assert_eq!(ReplacementRecord::parse_line(&rec.to_line()), Some(rec));
        }
    }

    #[test]
    fn line_shape() {
        let rec = ReplacementRecord {
            date: CalDate::new(2019, 2, 18),
            node: NodeId(5),
            component: Component::Dimm(DimmSlot::from_letter('J').unwrap()),
        };
        assert_eq!(
            rec.to_line(),
            "2019-02-18 node0005 inventory: component=dimm slot=J"
        );
    }

    #[test]
    fn category_labels() {
        assert_eq!(Component::Processor(SocketId(0)).category(), "Processors");
        assert_eq!(Component::Motherboard.category(), "Motherboards");
        assert_eq!(
            Component::Dimm(DimmSlot::from_letter('A').unwrap()).category(),
            "DIMMs"
        );
    }

    /// Differential against the `str` parser it replaced (see
    /// `crate::oracle`). The dates sit at month ends, so that single
    /// edits make days the month lacks.
    #[test]
    fn matches_the_oracle_on_a_mutation_corpus() {
        let bases: Vec<String> = [
            (CalDate::new(2019, 2, 28), Component::Processor(SocketId(1))),
            (CalDate::new(2020, 2, 29), Component::Motherboard),
            (
                CalDate::new(2019, 4, 30),
                Component::Dimm(DimmSlot::from_letter('J').unwrap()),
            ),
            (
                CalDate::new(2019, 9, 17),
                Component::Dimm(DimmSlot::from_letter('P').unwrap()),
            ),
        ]
        .into_iter()
        .map(|(date, component)| {
            ReplacementRecord {
                date,
                node: NodeId(5),
                component,
            }
            .to_line()
        })
        .collect();
        let (checked, refused) = crate::oracle::check_corpus(
            &bases,
            ReplacementRecord::parse_line,
            crate::oracle::parse_inventory,
            PartialEq::eq,
        );
        assert!(
            checked > 20_000 && refused > 0,
            "{checked} lines, {refused} refused"
        );
    }

    #[test]
    fn impossible_dates_are_refused() {
        for date in [
            "2019-02-29",
            "2019-02-30",
            "2019-04-31",
            "2100-02-29",
            "10000-01-01",
        ] {
            let line = format!("{date} node0001 inventory: component=motherboard");
            assert_eq!(ReplacementRecord::parse_line(&line), None, "{line}");
            assert_eq!(
                ReplacementRecord::classify_bad_line(&line),
                QuarantineReason::FieldOutOfRange
            );
        }
        let leap = "2020-02-29 node0001 inventory: component=motherboard";
        assert!(ReplacementRecord::parse_line(leap).is_some());
    }

    #[test]
    fn rejects_bad_lines() {
        assert_eq!(ReplacementRecord::parse_line(""), None);
        assert_eq!(
            ReplacementRecord::parse_line("2019-02-18 node0005 inventory: component=gpu"),
            None
        );
        assert_eq!(
            ReplacementRecord::parse_line(
                "2019-02-18 node0005 inventory: component=processor socket=3"
            ),
            None
        );
        assert_eq!(
            ReplacementRecord::parse_line("2019-13-18 node0005 inventory: component=motherboard"),
            None
        );
    }
}
