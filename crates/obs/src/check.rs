//! The regression gate behind `stats --check`: compare a live metric
//! snapshot against a checked-in threshold file and produce a typed
//! pass/fail report.
//!
//! The threshold file is JSON-lines, one rule per line; `#` comments
//! and blank lines are skipped:
//!
//! ```text
//! {"rule":"stage_p99_ms","stage":"pipeline.parse","max":120000}
//! {"rule":"quarantine_rate","max":0.01}
//! {"rule":"workingset_mib","max":4096}
//! {"rule":"counter_max","name":"ingest.quarantined.bad-utf8","max":0}
//! ```
//!
//! Unknown rules and malformed lines are hard errors — a gate that
//! silently skips rules gates nothing. For the same reason a latency
//! rule that saw no timing (a stage that did not run, a daemon that
//! answered no request) reports `no data` and fails.

use crate::export::{Frozen, Snapshot};
use crate::metrics::{Histogram, HistogramSnapshot};

/// One threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Merged p99 across every `time.*` timing whose leaf stage is
    /// `stage` (any nesting), in milliseconds. Fails with no data when
    /// the stage did not run.
    StageP99Ms {
        /// Leaf stage name, e.g. `pipeline.parse`.
        stage: String,
        /// Upper bound in milliseconds.
        max: f64,
    },
    /// Quarantined lines as a fraction of all ingested lines
    /// (`ingest.quarantined.*` over those plus `parse.*.lines_ok`).
    QuarantineRate {
        /// Upper bound on the fraction (0–1).
        max: f64,
    },
    /// Peak working set, MiB: the max of the batch and streaming
    /// working-set gauges.
    WorkingsetMib {
        /// Upper bound in MiB.
        max: f64,
    },
    /// Upper bound on one named counter.
    CounterMax {
        /// Counter name.
        name: String,
        /// Upper bound on its value.
        max: f64,
    },
    /// p99 of the serve daemon's per-request latency (the `serve.request`
    /// timing histogram), in milliseconds. Fails with no data when no
    /// request was served.
    ServeP99Ms {
        /// Upper bound in milliseconds.
        max: f64,
    },
}

impl Rule {
    /// Identity string used in the report.
    pub fn describe(&self) -> String {
        match self {
            Rule::StageP99Ms { stage, .. } => format!("stage_p99_ms[{stage}]"),
            Rule::QuarantineRate { .. } => "quarantine_rate".to_string(),
            Rule::WorkingsetMib { .. } => "workingset_mib".to_string(),
            Rule::CounterMax { name, .. } => format!("counter_max[{name}]"),
            Rule::ServeP99Ms { .. } => "serve_p99_ms".to_string(),
        }
    }

    fn limit(&self) -> f64 {
        match self {
            Rule::StageP99Ms { max, .. }
            | Rule::QuarantineRate { max }
            | Rule::WorkingsetMib { max }
            | Rule::CounterMax { max, .. }
            | Rule::ServeP99Ms { max } => *max,
        }
    }
}

/// A parsed threshold file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Thresholds {
    /// Rules in file order.
    pub rules: Vec<Rule>,
}

impl Thresholds {
    /// Parse the JSON-lines rule file.
    pub fn parse(text: &str) -> Result<Thresholds, String> {
        let mut rules = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let rule = crate::export::json_str(line, "rule")
                .ok_or_else(|| format!("thresholds line {lineno}: no \"rule\" key"))?;
            let max = crate::export::json_num(line, "max")
                .ok_or_else(|| format!("thresholds line {lineno}: no \"max\" key"))?;
            rules.push(match rule.as_str() {
                "stage_p99_ms" => Rule::StageP99Ms {
                    stage: crate::export::json_str(line, "stage").ok_or_else(|| {
                        format!("thresholds line {lineno}: stage_p99_ms needs \"stage\"")
                    })?,
                    max,
                },
                "quarantine_rate" => Rule::QuarantineRate { max },
                "workingset_mib" => Rule::WorkingsetMib { max },
                "counter_max" => Rule::CounterMax {
                    name: crate::export::json_str(line, "name").ok_or_else(|| {
                        format!("thresholds line {lineno}: counter_max needs \"name\"")
                    })?,
                    max,
                },
                "serve_p99_ms" => Rule::ServeP99Ms { max },
                other => return Err(format!("thresholds line {lineno}: unknown rule {other:?}")),
            });
        }
        Ok(Thresholds { rules })
    }
}

/// One rule's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Rule identity ([`Rule::describe`]).
    pub rule: String,
    /// Observed value in the rule's unit; `None` when the rule's stage
    /// recorded no timing.
    pub observed: Option<f64>,
    /// Configured upper bound.
    pub limit: f64,
    /// An observed value within `limit`.
    pub ok: bool,
}

/// Outcome of checking a snapshot against a threshold file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Per-rule outcomes, in file order.
    pub results: Vec<CheckResult>,
}

impl CheckReport {
    /// True when every rule passed.
    pub fn ok(&self) -> bool {
        self.results.iter().all(|r| r.ok)
    }

    /// Number of exceeded rules.
    pub fn violations(&self) -> usize {
        self.results.iter().filter(|r| !r.ok).count()
    }

    /// Human-readable report, one line per rule plus a verdict.
    pub fn render(&self) -> String {
        let width = self
            .results
            .iter()
            .map(|r| r.rule.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = format!("threshold check: {} rules\n", self.results.len());
        for r in &self.results {
            let observed = match r.observed {
                Some(v) => format!(
                    "observed {} {}",
                    fmt_value(v),
                    if r.ok { "<=" } else { ">" }
                ),
                None => "no data, nothing was timed;".to_string(),
            };
            out.push_str(&format!(
                "  {}  {:<width$}  {observed} max {}\n",
                if r.ok { "ok  " } else { "FAIL" },
                r.rule,
                fmt_value(r.limit),
            ));
        }
        if self.ok() {
            out.push_str("threshold check passed\n");
        } else {
            out.push_str(&format!(
                "threshold check FAILED: {} of {} rules exceeded\n",
                self.violations(),
                self.results.len()
            ));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Evaluate every rule against the snapshot.
pub fn check(thresholds: &Thresholds, snap: &Snapshot) -> CheckReport {
    CheckReport {
        results: thresholds
            .rules
            .iter()
            .map(|rule| {
                let observed = observe(rule, snap);
                CheckResult {
                    rule: rule.describe(),
                    observed,
                    limit: rule.limit(),
                    ok: observed.is_some_and(|v| v <= rule.limit()),
                }
            })
            .collect(),
    }
}

fn observe(rule: &Rule, snap: &Snapshot) -> Option<f64> {
    let value = match rule {
        Rule::StageP99Ms { stage, .. } => {
            return merged_stage_timing(snap, stage).map(|h| h.p99() as f64 / 1e6)
        }
        Rule::QuarantineRate { .. } => {
            let quarantined = sum_counters(snap, |n| n.starts_with("ingest.quarantined."));
            let parsed = sum_counters(snap, |n| {
                n.starts_with("parse.") && n.ends_with(".lines_ok")
            });
            let total = quarantined + parsed;
            if total == 0 {
                0.0
            } else {
                quarantined as f64 / total as f64
            }
        }
        Rule::WorkingsetMib { .. } => {
            let peak = snap
                .gauge("pipeline.workingset_bytes")
                .max(snap.gauge("stream.workingset_bytes"));
            peak / (1024.0 * 1024.0)
        }
        Rule::CounterMax { name, .. } => snap.counter(name) as f64,
        Rule::ServeP99Ms { .. } => {
            return match snap.get("serve.request") {
                Some(Frozen::Timing(s)) if s.count > 0 => Some(s.p99() as f64 / 1e6),
                _ => None,
            }
        }
    };
    Some(value)
}

fn sum_counters(snap: &Snapshot, keep: impl Fn(&str) -> bool) -> u64 {
    snap.entries
        .iter()
        .filter_map(|(name, frozen)| match frozen {
            Frozen::Counter(v) if keep(name) => Some(*v),
            _ => None,
        })
        .sum()
}

/// Merge every `time.*` timing whose path is exactly `stage` or ends in
/// `/stage` into one histogram — the same leaf matching the `stats`
/// stage breakdown uses, so percentiles aggregate over all call
/// contexts of a stage.
pub fn merged_stage_timing(snap: &Snapshot, stage: &str) -> Option<HistogramSnapshot> {
    let suffix = format!("/{stage}");
    let mut merged: Option<Histogram> = None;
    for (name, frozen) in &snap.entries {
        let Frozen::Timing(s) = frozen else { continue };
        let Some(path) = name.strip_prefix("time.") else {
            continue;
        };
        if path == stage || path.ends_with(&suffix) {
            merged
                .get_or_insert_with(|| Histogram::new(&s.bounds))
                .merge_snapshot(s);
        }
    }
    merged.map(|h| h.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snapshot_with_stages() -> Snapshot {
        let r = Registry::new();
        r.timing("time.pipeline.analyze/pipeline.parse")
            .record(2_000_000); // 2 ms
        r.timing("time.pipeline.parse").record(10_000_000); // 10 ms
        r.counter("parse.ce.lines_ok").add(990);
        r.counter("ingest.quarantined.bad-utf8").add(10);
        r.gauge("pipeline.workingset_bytes")
            .set(3.0 * 1024.0 * 1024.0);
        r.snapshot()
    }

    #[test]
    fn parse_accepts_all_rule_kinds_and_comments() {
        let t = Thresholds::parse(concat!(
            "# comment\n",
            "\n",
            "{\"rule\":\"stage_p99_ms\",\"stage\":\"pipeline.parse\",\"max\":100}\n",
            "{\"rule\":\"quarantine_rate\",\"max\":0.5}\n",
            "{\"rule\":\"workingset_mib\",\"max\":64}\n",
            "{\"rule\":\"counter_max\",\"name\":\"x\",\"max\":3}\n",
            "{\"rule\":\"serve_p99_ms\",\"max\":250}\n",
        ))
        .expect("parses");
        assert_eq!(t.rules.len(), 5);
        assert_eq!(t.rules[4], Rule::ServeP99Ms { max: 250.0 });
        assert_eq!(
            t.rules[0],
            Rule::StageP99Ms {
                stage: "pipeline.parse".to_string(),
                max: 100.0
            }
        );
    }

    #[test]
    fn parse_rejects_unknown_and_incomplete_rules() {
        assert!(Thresholds::parse("{\"rule\":\"nope\",\"max\":1}")
            .unwrap_err()
            .contains("unknown rule"));
        assert!(Thresholds::parse("{\"rule\":\"stage_p99_ms\",\"max\":1}")
            .unwrap_err()
            .contains("stage"));
        assert!(Thresholds::parse("{\"max\":1}")
            .unwrap_err()
            .contains("rule"));
    }

    #[test]
    fn merged_stage_timing_matches_leaves_across_contexts() {
        let snap = snapshot_with_stages();
        let merged = merged_stage_timing(&snap, "pipeline.parse").expect("present");
        assert_eq!(merged.count, 2, "rooted + nested occurrences merge");
        assert_eq!(merged.sum, 12_000_000);
        assert!(merged_stage_timing(&snap, "absent.stage").is_none());
    }

    #[test]
    fn check_passes_generous_and_fails_tight_limits() {
        let snap = snapshot_with_stages();
        let pass = Thresholds::parse(concat!(
            "{\"rule\":\"stage_p99_ms\",\"stage\":\"pipeline.parse\",\"max\":1000}\n",
            "{\"rule\":\"quarantine_rate\",\"max\":0.05}\n",
            "{\"rule\":\"workingset_mib\",\"max\":64}\n",
        ))
        .unwrap();
        let report = check(&pass, &snap);
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("threshold check passed"));

        let tight = Thresholds::parse("{\"rule\":\"quarantine_rate\",\"max\":0.001}").unwrap();
        let report = check(&tight, &snap);
        assert!(!report.ok());
        assert_eq!(report.violations(), 1);
        let rendered = report.render();
        assert!(rendered.contains("FAIL"), "{rendered}");
        assert!(rendered.contains("quarantine_rate"), "{rendered}");
        // 10 quarantined of 1000 total lines.
        assert!((report.results[0].observed.unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn workingset_rule_reads_the_peak_gauge() {
        let snap = snapshot_with_stages();
        let t = Thresholds::parse("{\"rule\":\"workingset_mib\",\"max\":2}").unwrap();
        let report = check(&t, &snap);
        assert!(!report.ok());
        assert!((report.results[0].observed.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn serve_rule_reads_request_p99_and_fails_without_traffic() {
        // No serve.request timing recorded, or one that timed nothing:
        // no data, and the rule fails whatever its max.
        let t = Thresholds::parse("{\"rule\":\"serve_p99_ms\",\"max\":1000}").unwrap();
        let report = check(&t, &snapshot_with_stages());
        assert!(!report.ok());
        assert_eq!(report.results[0].observed, None);
        assert!(report.render().contains("FAIL  serve_p99_ms  no data"));
        let idle = Registry::new();
        idle.timing("serve.request");
        assert_eq!(check(&t, &idle.snapshot()).results[0].observed, None);
        let t = Thresholds::parse("{\"rule\":\"serve_p99_ms\",\"max\":0}").unwrap();

        // With traffic, the rule reads the timing's p99 in milliseconds.
        let r = Registry::new();
        for _ in 0..100 {
            r.timing("serve.request").record(4_000_000); // 4 ms
        }
        let report = check(&t, &r.snapshot());
        assert!(!report.ok());
        let observed = report.results[0].observed.unwrap();
        assert!(
            observed > 1.0,
            "p99 of 4ms samples should exceed 1ms, got {observed}"
        );
        let generous = Thresholds::parse("{\"rule\":\"serve_p99_ms\",\"max\":1000}").unwrap();
        assert!(check(&generous, &r.snapshot()).ok());
    }

    #[test]
    fn stage_rule_without_timings_fails_with_no_data() {
        let snap = snapshot_with_stages();
        let t = Thresholds::parse(concat!(
            "{\"rule\":\"stage_p99_ms\",\"stage\":\"pipeline.parse\",\"max\":1000}\n",
            "{\"rule\":\"stage_p99_ms\",\"stage\":\"pipeline.gone\",\"max\":1000}\n",
        ))
        .unwrap();
        let report = check(&t, &snap);
        assert!(report.results[0].ok);
        assert_eq!(report.results[1].observed, None);
        assert!(
            !report.results[1].ok,
            "a rule that saw nothing must not pass"
        );
        assert_eq!(report.violations(), 1);
        let rendered = report.render();
        let line = rendered
            .lines()
            .find(|l| l.contains("stage_p99_ms[pipeline.gone]"))
            .unwrap();
        assert!(
            line.contains("FAIL") && line.contains("no data"),
            "{rendered}"
        );
    }

    #[test]
    fn counter_rule_treats_absent_as_zero() {
        let snap = Registry::new().snapshot();
        let t =
            Thresholds::parse("{\"rule\":\"counter_max\",\"name\":\"never\",\"max\":0}").unwrap();
        assert!(check(&t, &snap).ok());
    }
}
