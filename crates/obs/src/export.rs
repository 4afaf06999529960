//! Exporters: a human-readable table and machine-readable JSON-lines,
//! plus the inverse parser used to fold a dataset's generation-time
//! metrics back into an analysis run.
//!
//! One JSON object per line, schema by kind:
//!
//! ```text
//! {"name":"parse.ce.lines_ok","kind":"counter","value":4096}
//! {"name":"coalesce.ratio","kind":"gauge","value":0.0123}
//! {"name":"faultsim.node_drops","kind":"histogram","count":64,"sum":128,
//!  "min":0,"max":32,"p50":1,"p95":4,"p99":30,
//!  "bounds":[1,4,16],"buckets":[60,2,1,1]}
//! ```
//!
//! The schema is append-only: consumers must ignore unknown keys, and
//! the `kind` field is the dispatch point. Lines are sorted by metric
//! name, so exports of deterministic metrics diff cleanly across runs.

use crate::metrics::HistogramSnapshot;
use crate::registry::{AbsorbValue, MetricKind, MetricValue, Registry};

/// One metric's frozen value.
#[derive(Debug, Clone)]
pub enum Frozen {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Size histogram state.
    Histogram(HistogramSnapshot),
    /// Timing histogram state (nanoseconds).
    Timing(HistogramSnapshot),
}

impl Frozen {
    /// The metric kind this value belongs to.
    pub fn kind(&self) -> MetricKind {
        match self {
            Frozen::Counter(_) => MetricKind::Counter,
            Frozen::Gauge(_) => MetricKind::Gauge,
            Frozen::Histogram(_) => MetricKind::Histogram,
            Frozen::Timing(_) => MetricKind::Timing,
        }
    }
}

pub(crate) fn freeze(value: &MetricValue) -> Frozen {
    match value {
        MetricValue::Counter(c) => Frozen::Counter(c.get()),
        MetricValue::Gauge(g) => Frozen::Gauge(g.get()),
        MetricValue::Histogram(h) => Frozen::Histogram(h.snapshot()),
        MetricValue::Timing(h) => Frozen::Timing(h.snapshot()),
    }
}

/// A point-in-time copy of a whole registry, sorted by metric name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` pairs in name order.
    pub entries: Vec<(String, Frozen)>,
}

impl Snapshot {
    /// Look up one frozen metric by name.
    pub fn get(&self, name: &str) -> Option<&Frozen> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name (0 when absent — absent means "never
    /// happened" for every counter this workspace registers).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Frozen::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Frozen::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Total seconds recorded under the timing `name` (0.0 when absent).
    pub fn timing_secs(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Frozen::Timing(snap)) => snap.sum as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Render as JSON-lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            render_jsonl_line(&mut out, name, value);
            out.push('\n');
        }
        out
    }

    /// Render in Prometheus text exposition format.
    ///
    /// Metric names are sanitized to the Prometheus charset (`.` and any
    /// other non-`[A-Za-z0-9_]` byte become `_`); counters gain the
    /// conventional `_total` suffix; timing histograms are exported in
    /// seconds under a `_seconds` name; size histograms keep their raw
    /// units. Bucket counts are cumulative with a trailing `+Inf` bucket,
    /// as the format requires.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let base = prometheus_name(name);
            match value {
                Frozen::Counter(v) => {
                    out.push_str(&format!("# TYPE {base}_total counter\n{base}_total {v}\n"));
                }
                Frozen::Gauge(v) => {
                    let rendered = if v.is_finite() {
                        format!("{v}")
                    } else {
                        "NaN".to_string()
                    };
                    out.push_str(&format!("# TYPE {base} gauge\n{base} {rendered}\n"));
                }
                Frozen::Histogram(s) => {
                    render_prometheus_histogram(&mut out, &base, s, |bound| bound.to_string(), 1.0);
                }
                Frozen::Timing(s) => {
                    // Nanoseconds internally, seconds on the wire — the
                    // Prometheus convention for duration histograms.
                    render_prometheus_histogram(
                        &mut out,
                        &format!("{base}_seconds"),
                        s,
                        |bound| format!("{}", bound as f64 / 1e9),
                        1e-9,
                    );
                }
            }
        }
        out
    }

    /// Render as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        out.push_str(&format!("{:<width$}  {:<9}  value\n", "metric", "kind"));
        for (name, value) in &self.entries {
            let rendered = match value {
                Frozen::Counter(v) => format!("{v}"),
                Frozen::Gauge(v) => format!("{v:.4}"),
                Frozen::Histogram(s) => format!(
                    "n={} sum={} min={} mean={:.1} p50={} p95={} p99={} max={}",
                    s.count,
                    s.sum,
                    s.min,
                    s.mean(),
                    s.p50(),
                    s.p95(),
                    s.p99(),
                    s.max
                ),
                Frozen::Timing(s) => format!(
                    "n={} total={} mean={} p50={} p95={} p99={} max={}",
                    s.count,
                    fmt_ns(s.sum),
                    fmt_ns(s.mean() as u64),
                    fmt_ns(s.p50()),
                    fmt_ns(s.p95()),
                    fmt_ns(s.p99()),
                    fmt_ns(s.max)
                ),
            };
            out.push_str(&format!(
                "{name:<width$}  {:<9}  {rendered}\n",
                value.kind().name()
            ));
        }
        out
    }
}

/// A metric name restricted to the Prometheus charset: every byte
/// outside `[A-Za-z0-9_]` becomes `_`, and a leading digit gets a `_`
/// prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// One Prometheus histogram block: cumulative `_bucket` series with a
/// `+Inf` terminator, then `_sum` and `_count`. `bound_label` renders a
/// bound for the `le` label; `sum_scale` converts the internal sum unit
/// (e.g. 1e-9 for nanoseconds → seconds).
fn render_prometheus_histogram(
    out: &mut String,
    base: &str,
    s: &HistogramSnapshot,
    bound_label: impl Fn(u64) -> String,
    sum_scale: f64,
) {
    out.push_str(&format!("# TYPE {base} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &n) in s.buckets.iter().enumerate() {
        cumulative += n;
        let le = match s.bounds.get(i) {
            Some(&bound) => bound_label(bound),
            None => "+Inf".to_string(),
        };
        out.push_str(&format!("{base}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    if s.buckets.is_empty() {
        out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} 0\n"));
    }
    let sum = if sum_scale == 1.0 {
        format!("{}", s.sum)
    } else {
        format!("{}", s.sum as f64 * sum_scale)
    };
    out.push_str(&format!("{base}_sum {sum}\n{base}_count {}\n", s.count));
}

/// Escape `s` for embedding inside a JSON string literal (surrounding
/// quotes not included). Public so downstream crates that hand-assemble
/// JSON (the serve daemon's site summaries) escape identically to this
/// exporter.
pub fn escape_json_str(s: &str) -> String {
    escape_json(s)
}

/// Human duration from nanoseconds.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn render_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn render_jsonl_line(out: &mut String, name: &str, value: &Frozen) {
    let name = escape_json(name);
    match value {
        Frozen::Counter(v) => {
            out.push_str(&format!(
                r#"{{"name":"{name}","kind":"counter","value":{v}}}"#
            ));
        }
        Frozen::Gauge(v) => {
            out.push_str(&format!(
                r#"{{"name":"{name}","kind":"gauge","value":{}}}"#,
                render_f64(*v)
            ));
        }
        Frozen::Histogram(s) | Frozen::Timing(s) => {
            // p50/p95/p99 are derived from the buckets; the importer
            // ignores them and re-derives, so roundtrips stay exact.
            let kind = value.kind().name();
            out.push_str(&format!(
                r#"{{"name":"{name}","kind":"{kind}","count":{},"sum":{},"min":{},"max":{},"p50":{},"p95":{},"p99":{},"bounds":{},"buckets":{}}}"#,
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50(),
                s.p95(),
                s.p99(),
                render_u64_array(&s.bounds),
                render_u64_array(&s.buckets),
            ));
        }
    }
}

// ---- import ----------------------------------------------------------

/// Extract and unescape the string value of `"key":"…"` from one JSON
/// line. Shared with the trace parser and the threshold-file parser.
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    let value = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(value)?);
                }
                'n' => out.push('\n'),
                't' => out.push('\t'),
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
}

/// Extract the numeric value of `"key":N` from one JSON line.
pub(crate) fn json_num(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the `u64` array value of `"key":[…]` from one JSON line.
fn json_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let pattern = format!("\"{key}\":[");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// Parse one exported line back into `(name, kind, value)`.
pub fn parse_jsonl_line(line: &str) -> Option<(String, MetricKind, AbsorbValue)> {
    let name = json_str(line, "name")?;
    let kind = MetricKind::parse(&json_str(line, "kind")?)?;
    let value = match kind {
        MetricKind::Counter | MetricKind::Gauge => {
            AbsorbValue::Scalar(json_num(line, "value").unwrap_or(0.0))
        }
        MetricKind::Histogram | MetricKind::Timing => AbsorbValue::Histogram(HistogramSnapshot {
            bounds: json_u64_array(line, "bounds")?,
            buckets: json_u64_array(line, "buckets")?,
            count: json_num(line, "count")? as u64,
            sum: json_num(line, "sum")? as u64,
            min: json_num(line, "min")? as u64,
            max: json_num(line, "max")? as u64,
        }),
    };
    Some((name, kind, value))
}

impl Registry {
    /// Fold a JSON-lines export (as written by [`Snapshot::to_jsonl`])
    /// into this registry, for the names it does not hold yet: a name the
    /// registry already has keeps its own value, so importing a file that
    /// an earlier run of the same work exported never counts that work
    /// twice. Unparseable lines are counted, not fatal — the same
    /// contract the log readers follow.
    pub fn import_jsonl(&self, text: &str) -> u64 {
        let held: std::collections::BTreeSet<String> = self.lock().keys().cloned().collect();
        let mut skipped = 0;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_jsonl_line(line) {
                Some((name, kind, value)) if !held.contains(&name) => {
                    self.absorb(&name, kind, &value)
                }
                Some(_) => {}
                None => skipped += 1,
            }
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("parse.ce.lines_ok").add(4096);
        r.gauge("coalesce.ratio").set(0.0123);
        let h = r.histogram("faultsim.node_drops", &[1, 4, 16]);
        h.record(0);
        h.record(3);
        h.record(100);
        r
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let jsonl = sample_registry().snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // Sorted by name, one object per line, exact rendering pinned:
        // this is the schema consumers depend on.
        assert_eq!(
            lines,
            vec![
                r#"{"name":"coalesce.ratio","kind":"gauge","value":0.0123}"#,
                r#"{"name":"faultsim.node_drops","kind":"histogram","count":3,"sum":103,"min":0,"max":100,"p50":4,"p95":100,"p99":100,"bounds":[1,4,16],"buckets":[1,1,0,1]}"#,
                r#"{"name":"parse.ce.lines_ok","kind":"counter","value":4096}"#,
            ]
        );
    }

    #[test]
    fn jsonl_roundtrips_through_import() {
        let jsonl = sample_registry().snapshot().to_jsonl();
        let restored = Registry::new();
        assert_eq!(restored.import_jsonl(&jsonl), 0);
        assert_eq!(restored.snapshot().to_jsonl(), jsonl);
    }

    #[test]
    fn import_skips_garbage_lines() {
        let r = Registry::new();
        let skipped = r.import_jsonl(
            "{\"name\":\"ok\",\"kind\":\"counter\",\"value\":1}\nnot json\n\n{\"kind\":\"counter\"}\n",
        );
        assert_eq!(skipped, 2);
        assert_eq!(r.counter("ok").get(), 1);
    }

    #[test]
    fn import_accumulates_counters() {
        let r = Registry::new();
        let line = "{\"name\":\"c\",\"kind\":\"counter\",\"value\":10}\n";
        r.import_jsonl(&format!("{line}{line}"));
        assert_eq!(r.counter("c").get(), 20, "one file's lines add up");
        r.import_jsonl(line);
        assert_eq!(
            r.counter("c").get(),
            20,
            "a held name is not imported again"
        );
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let text = sample_registry().snapshot().to_prometheus();
        assert_eq!(
            text,
            "# TYPE coalesce_ratio gauge\n\
             coalesce_ratio 0.0123\n\
             # TYPE faultsim_node_drops histogram\n\
             faultsim_node_drops_bucket{le=\"1\"} 1\n\
             faultsim_node_drops_bucket{le=\"4\"} 2\n\
             faultsim_node_drops_bucket{le=\"16\"} 2\n\
             faultsim_node_drops_bucket{le=\"+Inf\"} 3\n\
             faultsim_node_drops_sum 103\n\
             faultsim_node_drops_count 3\n\
             # TYPE parse_ce_lines_ok_total counter\n\
             parse_ce_lines_ok_total 4096\n"
        );
    }

    #[test]
    fn prometheus_timings_convert_to_seconds() {
        let r = Registry::new();
        let t = r.timing("serve.request");
        t.record(2_000_000_000); // 2s
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("# TYPE serve_request_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("serve_request_seconds_sum 2\n"), "{text}");
        assert!(text.contains("serve_request_seconds_count 1\n"), "{text}");
        assert!(
            text.contains("serve_request_seconds_bucket{le=\"0.001024\"}"),
            "timing bounds must be rendered in seconds: {text}"
        );
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample_registry().snapshot().to_table();
        assert!(table.contains("parse.ce.lines_ok"));
        assert!(table.contains("coalesce.ratio"));
        assert!(table.contains("faultsim.node_drops"));
        assert!(table.contains("counter"));
        assert!(table.contains("n=3"));
    }

    #[test]
    fn snapshot_accessors() {
        let snap = sample_registry().snapshot();
        assert_eq!(snap.counter("parse.ce.lines_ok"), 4096);
        assert_eq!(snap.counter("missing"), 0);
        assert!((snap.gauge("coalesce.ratio") - 0.0123).abs() < 1e-12);
        assert_eq!(snap.timing_secs("missing"), 0.0);
    }

    #[test]
    fn escaped_names_roundtrip() {
        let r = Registry::new();
        r.counter("weird\"name\\x").inc();
        let jsonl = r.snapshot().to_jsonl();
        let restored = Registry::new();
        assert_eq!(restored.import_jsonl(&jsonl), 0);
        assert_eq!(restored.counter("weird\"name\\x").get(), 1);
    }
}
