//! BMC environmental sensor records.
//!
//! Each node reports six temperature sensors (two CPU, four DIMM-group) and
//! one DC power sensor, sampled once per minute (§2.2). The paper notes
//! that some samples are invalid — sensors "not functioning or not properly
//! read", plus DC power readings that were "clearly identified as invalid"
//! — and excludes them (< 1 % of the data). The format therefore allows an
//! explicit invalid marker *and* implausible numeric values; the analyzer
//! applies the paper's validity filters rather than trusting the producer.

use astra_topology::{NodeId, SensorId, SensorKind};
use astra_util::{ascii, Minute};

use crate::kv;
use crate::quarantine::{LineFormat, QuarantineReason};

/// One sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorRecord {
    /// Sample time (per-minute cadence).
    pub time: Minute,
    /// Reporting node.
    pub node: NodeId,
    /// Which sensor.
    pub sensor: SensorId,
    /// Raw value: °C for temperature sensors, W for the power sensor.
    /// `None` when the BMC failed to read the sensor.
    pub value: Option<f64>,
}

impl SensorRecord {
    /// Serialize to the one-line BMC format.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(64);
        self.to_line_into(&mut line);
        line
    }

    /// Append the one-line BMC form to `out` (buffer-reuse variant of
    /// [`SensorRecord::to_line`]).
    pub fn to_line_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        write!(
            out,
            "{} {} BMC: sensor={} value=",
            self.time.rfc3339(),
            self.node,
            self.sensor.name(),
        )
        .expect("write to String cannot fail");
        match self.value {
            Some(v) => write!(out, "{v:.1}"),
            None => write!(out, "unreadable"),
        }
        .expect("write to String cannot fail");
    }

    /// Parse a line produced by [`SensorRecord::to_line`], in one pass
    /// over its bytes.
    pub fn parse_line(line: &str) -> Option<Self> {
        let (ts, node, tail) = kv::split_line(line.as_bytes(), b"BMC")?;
        let [sensor, value] = kv::fields(tail, &[b"sensor", b"value"]);
        let value = match value? {
            b"unreadable" => None,
            v => Some(parse_value(v)?),
        };
        Some(SensorRecord {
            time: Minute::parse_rfc3339(ts)?,
            node: NodeId(kv::parse_node(node)?),
            sensor: SensorId::parse_name(sensor?)?,
            value,
        })
    }

    /// Classify a line [`SensorRecord::parse_line`] rejected (see
    /// [`crate::ce::CeRecord::classify_bad_line`] for the heuristic).
    pub fn classify_bad_line(line: &str) -> QuarantineReason {
        if !line.contains(" BMC:") {
            return QuarantineReason::UnknownFormat;
        }
        if line.contains("sensor=") && line.contains("value=") {
            QuarantineReason::FieldOutOfRange
        } else {
            QuarantineReason::Truncated
        }
    }

    /// The paper's validity filter: readable, and physically plausible for
    /// the sensor kind. Implausible power values model the "clearly
    /// invalid" DC readings §2.2 mentions.
    pub fn valid_value(&self) -> Option<f64> {
        let v = self.value?;
        let plausible = match self.sensor.kind() {
            SensorKind::CpuTemp(_) => (0.0..=150.0).contains(&v),
            SensorKind::DimmTemp(_) => (0.0..=100.0).contains(&v),
            SensorKind::DcPower => (50.0..=1000.0).contains(&v),
        };
        plausible.then_some(v)
    }
}

/// A reading as `f64::from_str` reads it.
///
/// The writer's `D+.D` form takes a short cut with the same result: its
/// digits (at most 15, so below 2^53) read as an integer are exact in an
/// `f64`, so one correctly rounded division by ten gives the nearest
/// `f64` to the decimal, which is what `from_str` returns too. Any other
/// form goes through `from_str`.
fn parse_value(v: &[u8]) -> Option<f64> {
    if let [int @ .., b'.', frac @ b'0'..=b'9'] = v {
        if int.len() <= 14 {
            if let Some(n) = ascii::dec_u64(int) {
                return Some((n * 10 + u64::from(frac - b'0')) as f64 / 10.0);
            }
        }
    }
    std::str::from_utf8(v).ok()?.parse().ok()
}

/// Ingest descriptor for `sensors.log`. The file is written node-major
/// (all of one node's samples, then the next node's), so it carries **no
/// ordering contract** — `order_key` is `None` and out-of-order
/// detection does not apply.
pub const FORMAT: LineFormat<SensorRecord> = LineFormat {
    parse: SensorRecord::parse_line,
    classify: SensorRecord::classify_bad_line,
    order_key: None,
};

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::{DimmGroup, SocketId};
    use astra_util::CalDate;

    fn at(minute: i64) -> Minute {
        CalDate::new(2019, 5, 20).midnight().plus(minute)
    }

    #[test]
    fn roundtrip_cpu_temp() {
        let rec = SensorRecord {
            time: at(1),
            node: NodeId(1),
            sensor: SensorId::cpu(SocketId(0)),
            value: Some(67.0),
        };
        assert_eq!(SensorRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn roundtrip_unreadable() {
        let rec = SensorRecord {
            time: at(2),
            node: NodeId(3),
            sensor: SensorId::dimm_group(DimmGroup::from_index(2).unwrap()),
            value: None,
        };
        assert_eq!(SensorRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn line_shape() {
        let rec = SensorRecord {
            time: at(0),
            node: NodeId(1),
            sensor: SensorId::dc_power(),
            value: Some(312.5),
        };
        assert_eq!(
            rec.to_line(),
            "2019-05-20T00:00:00 node0001 BMC: sensor=power value=312.5"
        );
    }

    #[test]
    fn validity_filters() {
        let base = SensorRecord {
            time: at(0),
            node: NodeId(1),
            sensor: SensorId::cpu(SocketId(0)),
            value: Some(67.0),
        };
        assert_eq!(base.valid_value(), Some(67.0));
        assert_eq!(
            SensorRecord {
                value: None,
                ..base
            }
            .valid_value(),
            None
        );
        assert_eq!(
            SensorRecord {
                value: Some(900.0),
                ..base
            }
            .valid_value(),
            None,
            "a 900 degree CPU reading is invalid"
        );
        let power = SensorRecord {
            sensor: SensorId::dc_power(),
            value: Some(5.0),
            ..base
        };
        assert_eq!(power.valid_value(), None, "5 W node power is invalid");
        let power_ok = SensorRecord {
            value: Some(320.0),
            ..power
        };
        assert_eq!(power_ok.valid_value(), Some(320.0));
    }

    /// Records equal to the bit, so that NaN matches NaN and -0.0 does
    /// not match 0.0.
    fn same_bits(a: &SensorRecord, b: &SensorRecord) -> bool {
        (a.time, a.node, a.sensor) == (b.time, b.node, b.sensor)
            && a.value.map(f64::to_bits) == b.value.map(f64::to_bits)
    }

    /// Differential against the `str` parser it replaced (see
    /// `crate::oracle`), on the writer's `D+.D` values and on forms only
    /// `f64::from_str` reads.
    #[test]
    fn matches_the_oracle_on_a_mutation_corpus() {
        let mut bases: Vec<String> = [
            (6, Some(312.5)),
            (0, Some(67.0)),
            (5, None),
            (2, Some(0.1)),
            (1, Some(99_999_999_999_999.9)),
        ]
        .into_iter()
        .map(|(sensor, value)| {
            SensorRecord {
                time: at(59),
                node: NodeId(7),
                sensor: SensorId::from_index(sensor).unwrap(),
                value,
            }
            .to_line()
        })
        .collect();
        let head = "2019-12-31T23:59:00 node2591 BMC: sensor=dimmg3 value=";
        for v in [
            "-3.5",
            "12",
            "1e3",
            ".5",
            "5.",
            "NaN",
            "inf",
            "1234567890123456.7",
        ] {
            bases.push(format!("{head}{v}"));
        }
        let (checked, refused) = crate::oracle::check_corpus(
            &bases,
            SensorRecord::parse_line,
            crate::oracle::parse_sensor,
            same_bits,
        );
        assert!(
            checked > 50_000 && refused > 0,
            "{checked} lines, {refused} refused"
        );
    }

    #[test]
    fn fast_path_values_equal_from_str() {
        for n in (0u64..200_000).chain([999_999_999_999_999, 123_456_789_012_345]) {
            let text = format!("{}.{}", n / 10, n % 10);
            assert_eq!(
                parse_value(text.as_bytes()).map(f64::to_bits),
                text.parse::<f64>().ok().map(f64::to_bits),
                "{text}"
            );
        }
    }

    #[test]
    fn rejects_foreign_lines() {
        assert_eq!(SensorRecord::parse_line(""), None);
        assert_eq!(
            SensorRecord::parse_line(
                "2019-05-20T00:00:00 node0001 HET: event=ucGoingHigh severity=WARNING"
            ),
            None
        );
        assert_eq!(
            SensorRecord::parse_line("2019-05-20T00:00:00 node0001 BMC: sensor=dimmg9 value=1.0"),
            None
        );
    }
}
