//! The metric registry: a named, typed map of counters, gauges, and
//! histograms.
//!
//! Registration is idempotent — `registry.counter("x")` returns a handle
//! to the same underlying atomic from every call site — so
//! instrumentation never coordinates. Names are sorted (BTreeMap), which
//! is what makes every export deterministic.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::export::Snapshot;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// What kind of metric a name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Fixed-bucket histogram of sizes/counts.
    Histogram,
    /// Fixed-bucket histogram of span durations in nanoseconds. Timings
    /// are the one metric family exempt from the determinism guarantee.
    Timing,
}

impl MetricKind {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Timing => "timing",
        }
    }

    /// Inverse of [`MetricKind::name`].
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            "timing" => Some(MetricKind::Timing),
            _ => None,
        }
    }
}

/// A handle to one registered metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter handle.
    Counter(Counter),
    /// Gauge handle.
    Gauge(Gauge),
    /// Size histogram handle.
    Histogram(Histogram),
    /// Timing histogram handle.
    Timing(Histogram),
}

impl MetricValue {
    /// This handle's kind.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
            MetricValue::Timing(_) => MetricKind::Timing,
        }
    }
}

/// A thread-safe, name-keyed metric store.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, MetricValue>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Fetch or create the counter `name`.
    ///
    /// Panics if `name` is already registered as a different kind — a
    /// naming bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> Counter {
        match self.fetch_or_insert(name, || MetricValue::Counter(Counter::default())) {
            MetricValue::Counter(c) => c,
            other => panic!("metric {name} is a {:?}, not a counter", other.kind()),
        }
    }

    /// Fetch or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.fetch_or_insert(name, || MetricValue::Gauge(Gauge::default())) {
            MetricValue::Gauge(g) => g,
            other => panic!("metric {name} is a {:?}, not a gauge", other.kind()),
        }
    }

    /// Fetch or create the size histogram `name`. `bounds` applies only
    /// on first registration; later calls get the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match self.fetch_or_insert(name, || MetricValue::Histogram(Histogram::new(bounds))) {
            MetricValue::Histogram(h) => h,
            other => panic!("metric {name} is a {:?}, not a histogram", other.kind()),
        }
    }

    /// Fetch or create the timing histogram `name` (nanosecond buckets).
    pub fn timing(&self, name: &str) -> Histogram {
        match self.fetch_or_insert(name, || {
            MetricValue::Timing(Histogram::new(&crate::timing_bounds_ns()))
        }) {
            MetricValue::Timing(h) => h,
            other => panic!("metric {name} is a {:?}, not a timing", other.kind()),
        }
    }

    fn fetch_or_insert(&self, name: &str, make: impl FnOnce() -> MetricValue) -> MetricValue {
        self.lock()
            .entry(name.to_string())
            .or_insert_with(make)
            .clone()
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricValue>> {
        self.metrics.lock().expect("registry poisoned")
    }

    /// Remove every metric.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.lock();
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, value)| (name.clone(), crate::export::freeze(value)))
                .collect(),
        }
    }

    /// Merge one exported metric into this registry (counters and
    /// histogram counts add; gauges overwrite). Used to fold a dataset's
    /// generation-time `metrics.jsonl` into an analysis run.
    ///
    /// A value whose kind differs from the name's registered kind is
    /// dropped.
    pub fn absorb(&self, name: &str, kind: MetricKind, value: &AbsorbValue) {
        let metric = {
            let mut metrics = self.lock();
            match metrics.get(name) {
                Some(m) if m.kind() != kind => return,
                Some(m) => m.clone(),
                None => {
                    let m = match (kind, value) {
                        (MetricKind::Counter, AbsorbValue::Scalar(_)) => {
                            MetricValue::Counter(Counter::default())
                        }
                        (MetricKind::Gauge, AbsorbValue::Scalar(_)) => {
                            MetricValue::Gauge(Gauge::default())
                        }
                        (MetricKind::Histogram, AbsorbValue::Histogram(snap)) => {
                            MetricValue::Histogram(Histogram::new(&snap.bounds))
                        }
                        (MetricKind::Timing, AbsorbValue::Histogram(_)) => {
                            MetricValue::Timing(Histogram::new(&crate::timing_bounds_ns()))
                        }
                        _ => return, // kind/value mismatch: drop rather than corrupt
                    };
                    metrics.insert(name.to_string(), m.clone());
                    m
                }
            }
        };
        match (metric, value) {
            (MetricValue::Counter(c), AbsorbValue::Scalar(v)) => c.add(*v as u64),
            (MetricValue::Gauge(g), AbsorbValue::Scalar(v)) => g.set(*v),
            (MetricValue::Histogram(h) | MetricValue::Timing(h), AbsorbValue::Histogram(snap)) => {
                h.merge_snapshot(snap)
            }
            _ => {} // kind/value mismatch: drop rather than corrupt
        }
    }
}

/// A parsed metric value ready to be [`Registry::absorb`]ed.
#[derive(Debug, Clone)]
pub enum AbsorbValue {
    /// Counter or gauge payload.
    Scalar(f64),
    /// Histogram or timing payload.
    Histogram(HistogramSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        r.counter("a.x").add(2);
        r.counter("a.x").add(3);
        assert_eq!(r.counter("a.x").get(), 5);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("a.x");
        r.gauge("a.x");
    }

    #[test]
    fn an_imported_value_gives_way_to_the_kind_the_code_uses() {
        let r = Registry::new();
        // The run's own work comes first: a gauge, and a counter.
        r.gauge("c.state").set(42.0);
        r.counter("c.events").add(2);
        // Then a file an older build wrote: the gauge as a counter, the
        // counter again, and a name this run never recorded.
        r.import_jsonl(concat!(
            "{\"name\":\"c.state\",\"kind\":\"counter\",\"value\":516}\n",
            "{\"name\":\"c.events\",\"kind\":\"counter\",\"value\":3}\n",
            "{\"name\":\"c.generated\",\"kind\":\"counter\",\"value\":7}\n",
        ));
        assert_eq!(r.gauge("c.state").get(), 42.0);
        assert_eq!(r.counter("c.events").get(), 2, "the run's own count stands");
        assert_eq!(r.counter("c.generated").get(), 7);
        // An absorbed value of another kind than the registered one is
        // dropped.
        r.absorb("c.state", MetricKind::Counter, &AbsorbValue::Scalar(7.0));
        assert_eq!(r.gauge("c.state").get(), 42.0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn a_claimed_import_still_panics_on_a_kind_clash() {
        let r = Registry::new();
        r.absorb("c.x", MetricKind::Counter, &AbsorbValue::Scalar(1.0));
        r.counter("c.x");
        r.gauge("c.x");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        r.gauge("m.middle").set(1.0);
        let snapshot = r.snapshot();
        let names: Vec<&str> = snapshot.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn clear_empties_registry() {
        let r = Registry::new();
        r.counter("a").inc();
        r.clear();
        assert!(r.snapshot().entries.is_empty());
        assert_eq!(r.counter("a").get(), 0, "re-registration starts fresh");
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.absorb("c", MetricKind::Counter, &AbsorbValue::Scalar(41.0));
        assert_eq!(r.counter("c").get(), 42);

        let h = Histogram::new(&[10]);
        h.record(3);
        r.absorb(
            "h",
            MetricKind::Histogram,
            &AbsorbValue::Histogram(h.snapshot()),
        );
        assert_eq!(r.histogram("h", &[10]).snapshot().count, 1);
    }
}
