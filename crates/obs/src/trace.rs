//! The event timeline: bounded per-thread trace buffers flushed to
//! Chrome/Perfetto trace-event JSON, plus the inverse parser and the
//! flame-table renderer behind `astra-mem trace`.
//!
//! Tracing is off by default and the off path is one relaxed atomic
//! load per span drop — cheap enough to leave the instrumentation in
//! every build (the benchmark's traced run fails above 2 % of its time).
//! When [`enable`]d, each completed span appends one event to a
//! thread-local buffer; the global sink mutex is only taken when a
//! buffer fills ([`THREAD_BUF_EVENTS`]) or its thread exits, so workers
//! never contend per-event.
//!
//! Timestamps are nanoseconds since the [`enable`] call (the trace
//! epoch). The Chrome format wants microseconds, so the writer renders
//! `ts`/`dur` as `µs` with three decimals — an exact representation of
//! the underlying nanosecond counts, which is what lets the flame
//! table's total-time column match the `time.*` histograms to the
//! nanosecond.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Per-thread buffer capacity, in events, before a flush to the global
/// sink. Bounds worst-case per-thread memory at roughly 100 B/event.
pub const THREAD_BUF_EVENTS: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// One completed span occurrence.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Full `/`-joined span path.
    pub path: String,
    /// Stable per-thread id, assigned in first-event order (1-based).
    pub tid: u64,
    /// Span start, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Counters attached via [`crate::SpanGuard::attach`] plus the
    /// allocator's `mem_peak_bytes` / `mem_net_bytes` deltas.
    pub args: Vec<(&'static str, i64)>,
}

struct ThreadBuf {
    tid: u64,
    events: Vec<TraceEvent>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        flush(&mut self.events);
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            tid: 0,
            events: Vec::new(),
        })
    };
}

fn flush(events: &mut Vec<TraceEvent>) {
    if events.is_empty() {
        return;
    }
    SINK.lock()
        .unwrap_or_else(|e| e.into_inner())
        .append(events);
}

/// Turn the timeline on, process-wide and sticky. The first call pins
/// the trace epoch all timestamps are relative to.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether the timeline is recording. This load is the entire cost of
/// a span drop when tracing is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Append one completed span to the calling thread's buffer. No-op if
/// [`enable`] was never called or the thread's TLS is tearing down.
pub(crate) fn record(path: &str, start: Instant, dur_ns: u64, args: Vec<(&'static str, i64)>) {
    let Some(epoch) = EPOCH.get() else { return };
    let ts_ns = start
        .checked_duration_since(*epoch)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let _ = BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.tid == 0 {
            buf.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let tid = buf.tid;
        buf.events.push(TraceEvent {
            path: path.to_string(),
            tid,
            ts_ns,
            dur_ns,
            args,
        });
        if buf.events.len() >= THREAD_BUF_EVENTS {
            let mut full = std::mem::take(&mut buf.events);
            flush(&mut full);
        }
    });
}

/// Drain every recorded event (global sink plus the calling thread's
/// buffer), sorted by start time. Buffers of still-running threads are
/// not visible; call this after joining workers — the scoped threads
/// `util::par` spawns flush on exit.
pub fn take_events() -> Vec<TraceEvent> {
    let _ = BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        let mut mine = std::mem::take(&mut buf.events);
        flush(&mut mine);
    });
    let mut events = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    events.sort_by(|a, b| (a.ts_ns, a.tid, &a.path).cmp(&(b.ts_ns, b.tid, &b.path)));
    events
}

/// Drain all events and render them as a Chrome trace-event JSON
/// document (load in `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn to_chrome_json() -> String {
    render_chrome_json(&take_events())
}

/// Render events as Chrome trace-event JSON: one complete (`"ph":"X"`)
/// event per span, named by its full path so nesting is readable even
/// for worker-thread tracks.
pub fn render_chrome_json(events: &[TraceEvent]) -> String {
    let pid = std::process::id();
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"astra\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{}",
            crate::export::escape_json(&event.path),
            event.tid,
            fmt_us(event.ts_ns),
            fmt_us(event.dur_ns),
        ));
        if !event.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (key, value)) in event.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{key}\":{value}"));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Nanoseconds rendered as the microseconds Chrome expects, keeping
/// nanosecond precision in the three decimals.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

// ---- reading a trace back --------------------------------------------

/// One event parsed back from a Chrome trace JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Full `/`-joined span path (the event name).
    pub path: String,
    /// Thread id.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached counters.
    pub args: Vec<(String, i64)>,
}

/// Parse a Chrome trace-event JSON document as written by
/// [`to_chrome_json`]. Only complete (`"ph":"X"`) events are kept.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let tail = &text[text
        .find("\"traceEvents\"")
        .ok_or_else(|| "not a Chrome trace: no \"traceEvents\" key".to_string())?..];
    let open = tail
        .find('[')
        .ok_or_else(|| "malformed trace: no event array".to_string())?;
    let array = &tail[open + 1..];

    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut object_start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in array.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    object_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(start) = object_start.take() {
                        if let Some(event) = parse_event(&array[start..=i]) {
                            events.push(event);
                        }
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    Ok(events)
}

fn parse_event(object: &str) -> Option<ParsedEvent> {
    if crate::export::json_str(object, "ph")? != "X" {
        return None;
    }
    let path = crate::export::json_str(object, "name")?;
    let tid = crate::export::json_num(object, "tid")? as u64;
    let ts_ns = (crate::export::json_num(object, "ts")? * 1000.0).round() as u64;
    let dur_ns = (crate::export::json_num(object, "dur")? * 1000.0).round() as u64;
    let mut args = Vec::new();
    if let Some(at) = object.find("\"args\":{") {
        let body = &object[at + "\"args\":{".len()..];
        let end = body.find('}')?;
        for pair in body[..end].split(',') {
            let mut kv = pair.splitn(2, ':');
            let key = kv.next()?.trim().trim_matches('"').to_string();
            if let Ok(value) = kv.next()?.trim().parse::<i64>() {
                args.push((key, value));
            }
        }
    }
    Some(ParsedEvent {
        path,
        tid,
        ts_ns,
        dur_ns,
        args,
    })
}

// ---- flame table -----------------------------------------------------

/// Per-path aggregate for the flame table.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRow {
    /// Full span path.
    pub path: String,
    /// Invocations.
    pub count: u64,
    /// Summed duration across invocations, ns. Matches the `time.<path>`
    /// histogram's `sum` exactly.
    pub total_ns: u64,
    /// Total minus the totals of direct children. Worker-thread children
    /// run concurrently with their parent, so this saturates at 0 when
    /// child time exceeds parent wall time.
    pub self_ns: u64,
    /// Largest `mem_peak_bytes` arg seen (0 when the allocator wrapper
    /// is not installed).
    pub mem_peak_bytes: i64,
    /// Summed `mem_net_bytes` args.
    pub mem_net_bytes: i64,
}

/// Aggregate parsed events into per-path flame rows, sorted by total
/// time descending.
pub fn flame_rows(events: &[ParsedEvent]) -> Vec<FlameRow> {
    use std::collections::BTreeMap;
    let mut by_path: BTreeMap<&str, FlameRow> = BTreeMap::new();
    for event in events {
        let row = by_path.entry(&event.path).or_insert_with(|| FlameRow {
            path: event.path.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            mem_peak_bytes: 0,
            mem_net_bytes: 0,
        });
        row.count += 1;
        row.total_ns += event.dur_ns;
        for (key, value) in &event.args {
            match key.as_str() {
                "mem_peak_bytes" => row.mem_peak_bytes = row.mem_peak_bytes.max(*value),
                "mem_net_bytes" => row.mem_net_bytes += *value,
                _ => {}
            }
        }
    }
    let totals: Vec<(String, u64)> = by_path
        .values()
        .map(|row| (row.path.clone(), row.total_ns))
        .collect();
    let mut rows: Vec<FlameRow> = by_path.into_values().collect();
    for row in &mut rows {
        let child_total: u64 = totals
            .iter()
            .filter(|(path, _)| is_direct_child(&row.path, path))
            .map(|(_, total)| *total)
            .sum();
        row.self_ns = row.total_ns.saturating_sub(child_total);
    }
    rows.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| a.path.cmp(&b.path))
    });
    rows
}

fn is_direct_child(parent: &str, candidate: &str) -> bool {
    candidate
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|leaf| !leaf.contains('/'))
}

/// Render the aligned flame table for `astra-mem trace`.
pub fn flame_table(events: &[ParsedEvent]) -> String {
    let rows = flame_rows(events);
    let width = rows
        .iter()
        .map(|row| row.path.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "path", "count", "total", "self", "mem peak", "mem net"
    ));
    for row in &rows {
        out.push_str(&format!(
            "{:<width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            row.path,
            row.count,
            crate::export::fmt_ns(row.total_ns),
            crate::export::fmt_ns(row.self_ns),
            fmt_bytes(row.mem_peak_bytes, false),
            fmt_bytes(row.mem_net_bytes, true),
        ));
    }
    out
}

/// Human byte count; `signed` adds an explicit `+` so net growth and
/// shrinkage read differently. Zero renders as `-` (not measured).
fn fmt_bytes(bytes: i64, signed: bool) -> String {
    if bytes == 0 {
        return "-".to_string();
    }
    let sign = if bytes < 0 {
        "-"
    } else if signed {
        "+"
    } else {
        ""
    };
    let abs = bytes.unsigned_abs() as f64;
    const KIB: f64 = 1024.0;
    if abs >= KIB * KIB * KIB {
        format!("{sign}{:.2}GiB", abs / (KIB * KIB * KIB))
    } else if abs >= KIB * KIB {
        format!("{sign}{:.1}MiB", abs / (KIB * KIB))
    } else if abs >= KIB {
        format!("{sign}{:.1}KiB", abs / KIB)
    } else {
        format!("{sign}{abs:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(path: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            path: path.to_string(),
            tid,
            ts_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_roundtrips_with_ns_precision() {
        let mut events = vec![
            event("pipeline.analyze", 1, 0, 5_000_123),
            event("pipeline.analyze/pipeline.consume", 1, 1_001, 2_000_999),
            event(
                "pipeline.analyze/pipeline.consume/consume.shard",
                2,
                1_500,
                999_001,
            ),
        ];
        events[0].args = vec![("records", 128), ("mem_net_bytes", -64)];
        let json = render_chrome_json(&events);
        let parsed = parse_chrome_trace(&json).expect("parse back");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].path, "pipeline.analyze");
        assert_eq!(parsed[0].ts_ns, 0);
        assert_eq!(parsed[0].dur_ns, 5_000_123, "ns survive the µs format");
        assert_eq!(
            parsed[0].args,
            vec![
                ("records".to_string(), 128),
                ("mem_net_bytes".to_string(), -64)
            ]
        );
        assert_eq!(parsed[2].tid, 2);
        assert_eq!(parsed[2].dur_ns, 999_001);
    }

    #[test]
    fn chrome_json_is_structurally_balanced() {
        // `parse_chrome_trace` splits on markers and shrugs off stray
        // braces, so it cannot catch malformed output that a strict
        // parser (Perfetto, python json.load in CI) rejects. Walk the
        // document and check every brace/bracket pairs up exactly.
        let mut events = vec![
            event("pipeline.analyze", 1, 0, 5_000),
            event("pipeline.analyze/pipeline.coalesce", 1, 10, 2_000),
        ];
        events[0].args = vec![("records", 7)];
        let json = render_chrome_json(&events);
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {json}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced document:\n{json}");
    }

    #[test]
    fn parse_rejects_non_traces() {
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("not json at all").is_err());
        // An empty trace is fine.
        assert_eq!(parse_chrome_trace("{\"traceEvents\":[]}").unwrap().len(), 0);
    }

    #[test]
    fn flame_rows_compute_self_time_from_direct_children() {
        let events = vec![
            event("root", 1, 0, 100),
            event("root/a", 1, 10, 30),
            event("root/a", 1, 50, 10),
            event("root/a/deep", 1, 12, 5),
            event("root/b", 1, 70, 20),
        ];
        let json = render_chrome_json(&events);
        let rows = flame_rows(&parse_chrome_trace(&json).unwrap());
        let get = |p: &str| rows.iter().find(|r| r.path == p).unwrap().clone();
        assert_eq!(get("root").total_ns, 100);
        // Direct children only: a (40) + b (20); deep belongs to a.
        assert_eq!(get("root").self_ns, 40);
        assert_eq!(get("root/a").count, 2);
        assert_eq!(get("root/a").self_ns, 35);
        assert_eq!(get("root/a/deep").self_ns, 5);
        assert_eq!(rows[0].path, "root", "sorted by total time");
    }

    #[test]
    fn flame_self_time_saturates_for_concurrent_children() {
        // Two workers each spend 80 ns under a 100 ns parent: child total
        // (160) exceeds the parent's wall time, so self clamps to 0.
        let events = vec![
            event("p", 1, 0, 100),
            event("p/w", 2, 5, 80),
            event("p/w", 3, 5, 80),
        ];
        let rows = flame_rows(&parse_chrome_trace(&render_chrome_json(&events)).unwrap());
        assert_eq!(rows.iter().find(|r| r.path == "p").unwrap().self_ns, 0);
    }

    #[test]
    fn flame_table_renders_memory_columns() {
        let mut e = event("stage", 1, 0, 1_000);
        e.args = vec![
            ("mem_peak_bytes", 3 * 1024 * 1024),
            ("mem_net_bytes", -2048),
        ];
        let table = flame_table(&parse_chrome_trace(&render_chrome_json(&[e])).unwrap());
        assert!(table.contains("3.0MiB"), "{table}");
        assert!(table.contains("-2.0KiB"), "{table}");
    }

    #[test]
    fn enabled_flag_gates_recording() {
        // Not enabled in this test binary unless another test flipped it;
        // record() without an epoch must be a silent no-op either way.
        record("never", Instant::now(), 1, Vec::new());
    }
}
