//! Metrics registry: counters, gauges, and log-bucketed cycle histograms.
//!
//! Metrics are keyed by **interned static names** — the registry holds a
//! `&'static str` per slot and looks it up by pointer-or-content equality,
//! so the hot path never allocates or hashes strings. All arithmetic in
//! the recording path is integer-only and saturating: no floats, no
//! panics on overflow, ever.
//!
//! Histograms use **fixed power-of-two buckets**: bucket 0 holds the
//! value 0, bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i - 1]`. With 65
//! buckets the full `u64` range is covered. Percentiles are resolved to a
//! bucket upper bound with pure integer math — good enough to tell a
//! 408-cycle Speck MAC from an 18-million-cycle whole-memory HMAC, which
//! is the discrimination the paper's cost argument needs.
//!
//! ```
//! use proverguard_telemetry::metrics;
//!
//! metrics::reset();
//! metrics::counter_add("session.retries", 2);
//! metrics::histogram_record("prover.attest_mac.cycles", 18_000_000);
//! let snap = metrics::snapshot();
//! assert_eq!(snap.counter("session.retries"), Some(2));
//! ```

use std::cell::RefCell;

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram of cycle counts (or any `u64` quantity).
#[derive(Debug, Clone)]
pub struct CycleHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        CycleHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value lands in: 0 for 0, else `64 - leading_zeros`,
    /// so bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The largest value bucket `index` can hold (`u64::MAX` for the last).
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one observation. Integer-only; count and sum saturate.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] =
            self.buckets[Self::bucket_index(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (integer division), or 0 if empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts, for exporters.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Folds another histogram into this one: bucket-wise addition, with
    /// count and sum saturating and max taking the larger. Used to
    /// aggregate per-thread histograms (each gateway shard records into
    /// its own thread-local registry) into one fleet-wide distribution.
    pub fn absorb(&mut self, other: &CycleHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (0–100), resolved to the upper bound of the
    /// bucket holding the rank-`ceil(count * p / 100)` observation and
    /// clamped to the observed maximum. Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = u64::from(p.min(100));
        // ceil(count * p / 100) without overflow; rank >= 1 for p > 0.
        let rank = (u128::from(self.count) * u128::from(p))
            .div_ceil(100)
            .max(1);
        let mut seen: u128 = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u128::from(n);
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Slot {
    /// Monotonic saturating counter.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(u64),
    /// Log-bucketed distribution (boxed: a histogram is ~0.5 KiB and
    /// would otherwise bloat every counter/gauge slot to its size).
    Histogram(Box<CycleHistogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A name-keyed collection of metrics. Most code uses the thread-local
/// global via the module free functions; an owned registry is handy for
/// tests and for isolating one workload's metrics from another's.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<(&'static str, Slot)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&mut self, name: &'static str, make: impl FnOnce() -> Slot) -> &mut Slot {
        // Linear scan over interned statics: registries hold tens of
        // names, and a pointer-width compare beats hashing at that size.
        let idx = match self.entries.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.entries.push((name, make()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[idx].1
    }

    /// Adds `delta` to the counter `name` (registering it if new).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.slot(name, || Slot::Counter(0)) {
            Slot::Counter(v) => *v = v.saturating_add(delta),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge `name` to `value` (registering it if new).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        match self.slot(name, || Slot::Gauge(0)) {
            Slot::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Records `value` into the histogram `name` (registering it if new).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        match self.slot(name, || Slot::Histogram(Box::default())) {
            Slot::Histogram(h) => h.record(value),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// The counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, s)| match s {
            Slot::Counter(v) if *n == name => Some(*v),
            _ => None,
        })
    }

    /// The gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, s)| match s {
            Slot::Gauge(v) if *n == name => Some(*v),
            _ => None,
        })
    }

    /// The histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&CycleHistogram> {
        self.entries.iter().find_map(|(n, s)| match s {
            Slot::Histogram(h) if *n == name => Some(h.as_ref()),
            _ => None,
        })
    }

    /// All entries in registration order.
    #[must_use]
    pub fn entries(&self) -> &[(&'static str, Slot)] {
        &self.entries
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Folds `other` into this registry: counters add, histograms merge
    /// bucket-wise ([`CycleHistogram::absorb`]), and gauges take the
    /// **maximum** of the two values — gauges are last-write-wins within
    /// one thread, so across threads the peak is the only aggregate that
    /// never under-reports (e.g. peak queue depth).
    ///
    /// # Panics
    /// If a name is registered with different metric kinds in the two
    /// registries.
    pub fn merge(&mut self, other: &Registry) {
        for (name, slot) in &other.entries {
            match slot {
                Slot::Counter(v) => self.counter_add(name, *v),
                Slot::Gauge(v) => {
                    let current = self.gauge(name).unwrap_or(0);
                    self.gauge_set(name, current.max(*v));
                }
                Slot::Histogram(h) => match self.slot(name, || Slot::Histogram(Box::default())) {
                    Slot::Histogram(mine) => mine.absorb(h),
                    other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
                },
            }
        }
    }

    /// A plain-text dump: one line per metric, histograms with
    /// count/mean/p50/p90/p99/max.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, slot) in &self.entries {
            match slot {
                Slot::Counter(v) => out.push_str(&format!("{name} = {v}\n")),
                Slot::Gauge(v) => out.push_str(&format!("{name} = {v} (gauge)\n")),
                Slot::Histogram(h) => out.push_str(&format!(
                    "{name}: count={} mean={} p50={} p90={} p99={} max={}\n",
                    h.count(),
                    h.mean(),
                    h.percentile(50),
                    h.percentile(90),
                    h.percentile(99),
                    h.max(),
                )),
            }
        }
        out
    }
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::new());
}

/// Runs `f` with this thread's registry. Do not call metrics free
/// functions from within `f` — the state is already borrowed.
pub fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Adds `delta` to the thread-local counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    with(|r| r.counter_add(name, delta));
}

/// Sets the thread-local gauge `name`.
pub fn gauge_set(name: &'static str, value: u64) {
    with(|r| r.gauge_set(name, value));
}

/// Records `value` into the thread-local histogram `name`.
pub fn histogram_record(name: &'static str, value: u64) {
    with(|r| r.histogram_record(name, value));
}

/// A point-in-time copy of this thread's registry.
#[must_use]
pub fn snapshot() -> Registry {
    with(|r| Registry {
        entries: r.entries.clone(),
    })
}

/// Clears this thread's registry.
pub fn reset() {
    with(Registry::clear);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        // Satellite: explicit bucket-edge coverage.
        assert_eq!(CycleHistogram::bucket_index(0), 0);
        assert_eq!(CycleHistogram::bucket_index(1), 1);
        assert_eq!(CycleHistogram::bucket_index(2), 2);
        assert_eq!(CycleHistogram::bucket_index(3), 2);
        assert_eq!(CycleHistogram::bucket_index(4), 3);
        assert_eq!(CycleHistogram::bucket_index(7), 3);
        assert_eq!(CycleHistogram::bucket_index(8), 4);
        for i in 1..64 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(CycleHistogram::bucket_index(low), i, "low edge of {i}");
            assert_eq!(CycleHistogram::bucket_index(high), i, "high edge of {i}");
        }
        assert_eq!(CycleHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(CycleHistogram::bucket_index(1u64 << 63), 64);
        assert_eq!(CycleHistogram::bucket_upper_bound(0), 0);
        assert_eq!(CycleHistogram::bucket_upper_bound(1), 1);
        assert_eq!(CycleHistogram::bucket_upper_bound(4), 15);
        assert_eq!(CycleHistogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = CycleHistogram::new();
        for v in [0u64, 1, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5201);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.mean(), 1040);
        // p50 rank = 3 → third observation (100) → bucket [64,127] → 127.
        assert_eq!(h.percentile(50), 127);
        // p100 resolves to the observed max, not a bucket bound.
        assert_eq!(h.percentile(100), 5000);
        assert_eq!(h.percentile(0), 0);
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        let mut h = CycleHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(99), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = CycleHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = Registry::new();
        r.counter_add("c", 1);
        r.counter_add("c", 2);
        r.gauge_set("g", 7);
        r.gauge_set("g", 4);
        r.histogram_record("h", 10);
        assert_eq!(r.counter("c"), Some(3));
        assert_eq!(r.gauge("g"), Some(4));
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        assert_eq!(r.counter("missing"), None);
        let text = r.render();
        assert!(text.contains("c = 3"));
        assert!(text.contains("g = 4 (gauge)"));
        assert!(text.contains("h: count=1"));
    }

    #[test]
    fn counter_saturates() {
        let mut r = Registry::new();
        r.counter_add("c", u64::MAX);
        r.counter_add("c", 10);
        assert_eq!(r.counter("c"), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.counter_add("x", 1);
        r.gauge_set("x", 1);
    }

    #[test]
    fn merge_folds_worker_registries() {
        let mut a = Registry::new();
        a.counter_add("bytes", 100);
        a.gauge_set("queue.peak", 3);
        a.histogram_record("latency", 8);
        a.histogram_record("latency", 16);

        let mut b = Registry::new();
        b.counter_add("bytes", 50);
        b.counter_add("busy", 2);
        b.gauge_set("queue.peak", 7);
        b.histogram_record("latency", 1024);

        a.merge(&b);
        assert_eq!(a.counter("bytes"), Some(150));
        assert_eq!(a.counter("busy"), Some(2));
        // Gauges merge by max: the fleet-wide peak.
        assert_eq!(a.gauge("queue.peak"), Some(7));
        let h = a.histogram("latency").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 8 + 16 + 1024);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn absorb_saturates_and_keeps_buckets() {
        let mut a = CycleHistogram::new();
        a.record(u64::MAX);
        let mut b = CycleHistogram::new();
        b.record(1);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX); // saturated
        assert_eq!(a.max(), u64::MAX);
        assert_eq!(a.buckets()[CycleHistogram::bucket_index(1)], 1);
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn merge_kind_mismatch_panics() {
        let mut a = Registry::new();
        a.counter_add("x", 1);
        let mut b = Registry::new();
        b.histogram_record("x", 1);
        a.merge(&b);
    }

    #[test]
    fn thread_local_free_functions() {
        reset();
        counter_add("tl.c", 5);
        gauge_set("tl.g", 9);
        histogram_record("tl.h", 42);
        let snap = snapshot();
        assert_eq!(snap.counter("tl.c"), Some(5));
        assert_eq!(snap.gauge("tl.g"), Some(9));
        assert_eq!(snap.histogram("tl.h").unwrap().max(), 42);
        reset();
        assert!(snapshot().entries().is_empty());
    }
}
