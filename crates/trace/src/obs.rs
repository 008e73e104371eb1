//! A lock-free metrics registry: named atomic counters, power-of-two
//! histograms and stage timers.
//!
//! Registration (name → handle) takes a mutex, but that is the cold path:
//! callers register once, hold the `Arc` handle, and every increment or
//! timing record on the hot path is a relaxed atomic operation.  The
//! registry renders a deterministic JSON snapshot (names sorted, stable
//! field order) for `--metrics-out` and the bench's stage-breakdown
//! block.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::write_str;

/// Histogram bucket count: bucket `i` counts values of bit-length `i`
/// (bucket 0 is exactly zero), with everything of bit-length ≥ 16 folded
/// into the last bucket.
const BUCKETS: usize = 17;

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over power-of-two buckets, plus exact count and
/// sum for mean computation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let index = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// ascending order.  The last bucket's bound saturates.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let bound = if i == 0 {
                        0
                    } else if i == BUCKETS - 1 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    (bound, n)
                })
            })
            .collect()
    }
}

/// Accumulated wall time of one pipeline stage: total nanoseconds and the
/// number of timed sections.
#[derive(Debug, Default)]
pub struct StageTimer {
    total_nanos: AtomicU64,
    count: AtomicU64,
}

impl StageTimer {
    /// Records one timed section.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.total_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total accumulated nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// Number of timed sections.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per section (zero when nothing was recorded).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos().checked_div(self.count()).unwrap_or(0)
    }
}

/// The registry: names to shared metric handles.
///
/// ```
/// use selfsim_trace::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let sent = registry.counter("sim/messages");
/// sent.add(3);
/// assert_eq!(registry.counter("sim/messages").get(), 3);
/// assert!(registry.snapshot_json().contains("\"sim/messages\": 3"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    timers: Mutex<BTreeMap<String, Arc<StageTimer>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("counter registry lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("histogram registry lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The stage timer named `name`, registering it on first use.
    pub fn timer(&self, name: &str) -> Arc<StageTimer> {
        Arc::clone(
            self.timers
                .lock()
                .expect("timer registry lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// A deterministic JSON snapshot of every registered metric: names
    /// sorted within each section (and escaped like every JSON string,
    /// through [`crate::json::write_str`]), stable field order, no floats.
    pub fn snapshot_json(&self) -> String {
        /// Each metric's name and rendered value, in name order.
        fn render<T>(
            metrics: &Mutex<BTreeMap<String, Arc<T>>>,
            value: impl Fn(&T) -> String,
        ) -> Vec<(String, String)> {
            let metrics = metrics.lock().expect("metric registry lock");
            metrics
                .iter()
                .map(|(name, m)| (name.clone(), value(m)))
                .collect()
        }
        let sections = [
            ("counters", render(&self.counters, |c| c.get().to_string())),
            (
                "histograms",
                render(&self.histograms, |h| {
                    let buckets: Vec<String> = (h.nonzero_buckets().into_iter())
                        .map(|(bound, n)| format!("[{bound}, {n}]"))
                        .collect();
                    let (count, sum, buckets) = (h.count(), h.sum(), buckets.join(", "));
                    format!("{{\"count\": {count}, \"sum\": {sum}, \"buckets\": [{buckets}]}}")
                }),
            ),
            (
                "timers",
                render(&self.timers, |t| {
                    let (count, total, mean) = (t.count(), t.total_nanos(), t.mean_nanos());
                    format!("{{\"count\": {count}, \"total_ns\": {total}, \"mean_ns\": {mean}}}")
                }),
            ),
        ];
        let mut out = b"{".to_vec();
        for (i, (section, entries)) in sections.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(format!("\n  \"{section}\": {{").as_bytes());
            for (j, (name, value)) in entries.iter().enumerate() {
                if j > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(b"\n    ");
                write_str(&mut out, name);
                out.extend_from_slice(format!(": {value}").as_bytes());
            }
            out.extend_from_slice(if entries.is_empty() { "}" } else { "\n  }" }.as_bytes());
        }
        out.extend_from_slice(b"\n}\n");
        String::from_utf8(out).expect("escaping keeps the snapshot UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.incr();
        b.add(2);
        assert_eq!(registry.counter("x").get(), 3);
        assert_eq!(registry.counter("y").get(), 0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 1000).wrapping_add(u64::MAX)
        );
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (0, 2), "two zeros in the zero bucket");
        assert_eq!(buckets[1], (1, 1), "one in [1,1]");
        assert_eq!(buckets[2], (3, 2), "2 and 3 in [2,3]");
        assert_eq!(buckets.last(), Some(&(u64::MAX, 1)), "overflow bucket");
    }

    #[test]
    fn timers_accumulate() {
        let t = StageTimer::default();
        assert_eq!(t.mean_nanos(), 0);
        t.record(Duration::from_nanos(100));
        t.record(Duration::from_nanos(300));
        assert_eq!(t.count(), 2);
        assert_eq!(t.total_nanos(), 400);
        assert_eq!(t.mean_nanos(), 200);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("b/second").add(2);
        registry.counter("a/first").incr();
        registry.histogram("depth").record(5);
        registry.timer("stage").record(Duration::from_nanos(40));
        let snapshot = registry.snapshot_json();
        assert_eq!(snapshot, registry.snapshot_json());
        let a = snapshot.find("a/first").expect("a/first present");
        let b = snapshot.find("b/second").expect("b/second present");
        assert!(a < b, "counter names sorted");
        assert!(snapshot.contains("\"depth\": {\"count\": 1, \"sum\": 5, \"buckets\": [[7, 1]]}"));
        assert!(snapshot.contains("\"stage\": {\"count\": 1, \"total_ns\": 40, \"mean_ns\": 40}"));
    }

    #[test]
    fn snapshot_layout_is_pinned() {
        let registry = MetricsRegistry::new();
        registry.counter("b").add(2);
        registry.counter("a").incr();
        registry.histogram("depth").record(5);
        registry.timer("stage").record(Duration::from_nanos(40));
        assert_eq!(
            registry.snapshot_json(),
            "{\n  \"counters\": {\n    \"a\": 1,\n    \"b\": 2\n  },\n  \
             \"histograms\": {\n    \"depth\": {\"count\": 1, \"sum\": 5, \"buckets\": [[7, 1]]}\n  },\n  \
             \"timers\": {\n    \"stage\": {\"count\": 1, \"total_ns\": 40, \"mean_ns\": 40}\n  }\n}\n"
        );
    }

    #[test]
    fn snapshot_escapes_metric_names() {
        let names = ["q\"uote", "back\\slash", "new\nline", "caf\u{e9}"];
        let registry = MetricsRegistry::new();
        for name in names {
            registry.counter(name).incr();
            registry.histogram(name).record(3);
            registry.timer(name).record(Duration::from_nanos(7));
        }
        let snapshot: serde::Value =
            serde_json::from_str(&registry.snapshot_json()).expect("snapshot parses");
        for section in ["counters", "histograms", "timers"] {
            let serde::Value::Object(entries) =
                snapshot.get_field(section).expect("section present")
            else {
                panic!("section `{section}` is not an object");
            };
            let mut parsed: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
            let mut expected = names.to_vec();
            parsed.sort_unstable();
            expected.sort_unstable();
            assert_eq!(parsed, expected, "{section}");
        }
    }

    #[test]
    fn empty_registry_snapshot_is_valid() {
        let snapshot = MetricsRegistry::new().snapshot_json();
        assert!(snapshot.contains("\"counters\": {}"));
        assert!(snapshot.contains("\"histograms\": {}"));
        assert!(snapshot.contains("\"timers\": {}"));
    }
}
