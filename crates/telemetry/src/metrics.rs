//! The deterministic metrics core: counters, gauges and histograms keyed
//! by name + label set, collected in a [`Registry`] and exported through
//! [`Snapshot`] as text or JSON.
//!
//! Determinism contract: a snapshot's byte representation depends only on
//! the sequence of metric operations performed — never on wall-clock
//! time, hash iteration order, or pointer values. Keys live in a
//! `BTreeMap` so every dump walks the same total order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramData};
use crate::json_escape;

/// A metric identity: static name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `net.tcp.retransmits`.
    pub name: String,
    /// Label pairs, sorted by key (the constructor sorts).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels so equal label sets always
    /// compare (and dump) identically.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell, so
/// a registry and any number of holders observe the same value.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter (not registered anywhere).
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

// Value comparisons, so telemetry-backed counters stay source-compatible
// with the plain `u64` fields they replaced (`stats.dropped > 0`).
impl PartialEq for Counter {
    fn eq(&self, other: &Counter) -> bool {
        self.get() == other.get()
    }
}

impl PartialEq<u64> for Counter {
    fn eq(&self, other: &u64) -> bool {
        self.get() == *other
    }
}

impl PartialOrd<u64> for Counter {
    fn partial_cmp(&self, other: &u64) -> Option<std::cmp::Ordering> {
        self.get().partial_cmp(other)
    }
}

/// A gauge handle: a signed value that can move both ways.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A standalone gauge (not registered anywhere).
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A shared collection of metrics. Cloning shares the underlying map, so
/// every layer of the stack can register into one registry and a single
/// snapshot covers them all.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Metric>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter for `name` + `labels`.
    ///
    /// # Panics
    ///
    /// Panics when the key is already registered as a different metric
    /// type — that is a naming bug, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().expect("registry lock");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Gets or creates the gauge for `name` + `labels`.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().expect("registry lock");
        match map.entry(key).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Gets or creates the histogram for `name` + `labels`.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().expect("registry lock");
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with another type"),
        }
    }

    /// Captures every registered metric's current value, in key order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().expect("registry lock");
        Snapshot {
            entries: map
                .iter()
                .map(|(k, m)| {
                    let value = match m {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapshotValue::Histogram(h.data()),
                    };
                    (k.clone(), value)
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.lock().expect("registry lock");
        f.debug_struct("Registry").field("metrics", &map.len()).finish()
    }
}

/// One metric's captured value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's full data.
    Histogram(HistogramData),
}

/// A point-in-time copy of a [`Registry`], ordered by [`MetricKey`].
/// Exports are byte-identical for identical metric contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<(MetricKey, SnapshotValue)>,
}

impl Snapshot {
    /// All entries in key order.
    #[must_use]
    pub fn entries(&self) -> &[(MetricKey, SnapshotValue)] {
        &self.entries
    }

    /// Looks up one metric by name + labels.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotValue> {
        let key = MetricKey::new(name, labels);
        self.entries
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SnapshotValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A histogram's data, when present.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramData> {
        match self.get(name, labels) {
            Some(SnapshotValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot as text, one metric per line, in key order.
    /// Histograms expand to `_count`/`_sum`/`_min`/`_max`/`_p50`/`_p90`/
    /// `_p99` lines.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            let k = key.render();
            match value {
                SnapshotValue::Counter(v) => out.push_str(&format!("{k} {v}\n")),
                SnapshotValue::Gauge(v) => out.push_str(&format!("{k} {v}\n")),
                SnapshotValue::Histogram(h) => {
                    out.push_str(&format!("{k}_count {}\n", h.count()));
                    out.push_str(&format!("{k}_sum {}\n", h.sum()));
                    out.push_str(&format!("{k}_min {}\n", h.min()));
                    out.push_str(&format!("{k}_max {}\n", h.max()));
                    out.push_str(&format!("{k}_p50 {}\n", h.quantile(0.50)));
                    out.push_str(&format!("{k}_p90 {}\n", h.quantile(0.90)));
                    out.push_str(&format!("{k}_p99 {}\n", h.quantile(0.99)));
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSON: an array of metric objects in key
    /// order, integers only, no whitespace variance — byte-identical for
    /// identical contents.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut items = Vec::with_capacity(self.entries.len());
        for (key, value) in &self.entries {
            let labels: Vec<String> = key
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect();
            let head = format!(
                "{{\"name\":\"{}\",\"labels\":{{{}}}",
                json_escape(&key.name),
                labels.join(",")
            );
            let body = match value {
                SnapshotValue::Counter(v) => format!("\"type\":\"counter\",\"value\":{v}"),
                SnapshotValue::Gauge(v) => format!("\"type\":\"gauge\",\"value\":{v}"),
                SnapshotValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .nonzero_buckets()
                        .iter()
                        .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
                        .collect();
                    format!(
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        buckets.join(",")
                    )
                }
            };
            items.push(format!("{head},{body}}}"));
        }
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let r = Registry::new();
        let a = r.counter("x", &[]);
        let b = r.counter("x", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("x", &[]), 3);
    }

    #[test]
    fn labels_distinguish_metrics_and_sort() {
        let r = Registry::new();
        r.counter("m", &[("b", "2"), ("a", "1")]).inc();
        r.counter("m", &[("a", "1"), ("b", "2")]).inc();
        r.counter("m", &[("a", "9")]).add(5);
        let s = r.snapshot();
        assert_eq!(s.counter("m", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(s.counter("m", &[("a", "9")]), 5);
    }

    #[test]
    fn snapshot_dumps_are_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("z.last", &[]).add(9);
            r.counter("a.first", &[("k", "v")]).add(1);
            r.gauge("g.mid", &[]).set(-4);
            let h = r.histogram("h.lat", &[("unit", "us")]);
            for v in [3u64, 77, 3000, 12] {
                h.record(v);
            }
            r.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        // Key order, not insertion order.
        let text = a.to_text();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("a.first"), "got {first}");
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        let _ = r.counter("dual", &[]);
        let _ = r.gauge("dual", &[]);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let r = Registry::new();
        r.counter("c", &[("quote", "a\"b")]).inc();
        let json = r.snapshot().to_json();
        assert!(json.contains("\\\""), "escapes quotes: {json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
