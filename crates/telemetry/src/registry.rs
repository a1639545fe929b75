//! The metric registry: named counters, histograms, and span
//! aggregates behind one thread-safe handle.
//!
//! Lock discipline: name → handle maps sit behind `parking_lot` locks,
//! but the handles themselves are `Arc`-shared atomics — so the hot path
//! (bumping a counter you already hold) is a single relaxed atomic add,
//! and even the name lookup is a read-lock plus hash. The [`crate::count!`]
//! macro caches the handle per call-site, making steady-state cost
//! exactly one atomic add.

use crate::hist::{BucketHistogram, Histogram};
use crate::snapshot::Snapshot;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One labeled histogram family: a shared explicit-bucket layout and one
/// [`BucketHistogram`] cell per distinct label set. The first caller's
/// bounds win; later callers share them (Prometheus requires one layout
/// per family).
struct LabeledFamily {
    bounds: Arc<[u64]>,
    cells: HashMap<String, Arc<BucketHistogram>>,
}

/// Canonical rendering of a label set: pairs sorted by label name,
/// values escaped Prometheus-style (`\\`, `\"`, `\n`), joined as
/// `k="v",k2="v2"`. This string is both the registry's cell key and the
/// exact text between `{}` in the exposition, so the two can never
/// disagree.
pub fn label_string(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A shareable counter handle (monotone u64).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A shareable gauge handle: a last-write-wins u64 for point-in-time
/// facts about the process (thread counts, pool sizes, configured
/// limits) — unlike a [`Counter`], it is not monotone and survives
/// [`Registry::reset`], since the fact it states remains true across
/// units of work.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Aggregate of one span path: invocation count and total wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries (children included — a
    /// parent's total covers its subtree, as wall clocks do).
    pub total_ns: u64,
}

/// A set of named metrics. Most code uses the process-global instance
/// via [`crate::global`]; tests construct private ones.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Counter>>,
    gauges: RwLock<HashMap<String, Gauge>>,
    hists: RwLock<HashMap<String, Arc<Histogram>>>,
    labeled: RwLock<HashMap<String, LabeledFamily>>,
    spans: Mutex<HashMap<String, SpanStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use. Cache the
    /// handle in hot loops (or use [`crate::count!`], which does).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adds `delta` to the counter named `name`.
    pub fn incr(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Current value of a counter; 0 if it was never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map_or(0, Counter::get)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Sets the gauge named `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).set(value);
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.hists.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.hists
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Records one observation into the histogram named `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Records `value` scaled by 1000 (three decimals of precision) —
    /// for physical quantities tracked as f64, e.g. energy units.
    pub fn observe_f64(&self, name: &str, value: f64) {
        self.observe(name, (value.max(0.0) * 1000.0).round() as u64);
    }

    /// The labeled-histogram cell for (`family`, `labels`), created on
    /// first use. The family's bucket layout is fixed by the first call;
    /// `bounds` from later calls are ignored (one layout per family, as
    /// Prometheus requires). Cache the handle in hot loops.
    pub fn labeled_histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<BucketHistogram> {
        let key = label_string(labels);
        if let Some(fam) = self.labeled.read().get(family) {
            if let Some(cell) = fam.cells.get(&key) {
                return Arc::clone(cell);
            }
        }
        let mut families = self.labeled.write();
        let fam = families
            .entry(family.to_string())
            .or_insert_with(|| LabeledFamily {
                bounds: bounds.into(),
                cells: HashMap::new(),
            });
        let fam_bounds = Arc::clone(&fam.bounds);
        Arc::clone(
            fam.cells
                .entry(key)
                .or_insert_with(|| Arc::new(BucketHistogram::new(&fam_bounds))),
        )
    }

    /// Records one observation into a labeled cell using the canonical
    /// latency layout ([`crate::hist::default_latency_buckets_us`]) —
    /// the one-liner the server's per-op/per-solver latency tracking
    /// uses.
    pub fn observe_labeled(&self, family: &str, labels: &[(&str, &str)], value: u64) {
        self.labeled_histogram(family, labels, &crate::hist::default_latency_buckets_us())
            .record(value);
    }

    /// Folds one completed span occurrence into the aggregate for `path`.
    pub fn record_span(&self, path: &str, elapsed_ns: u64) {
        let mut spans = self.spans.lock();
        let stat = spans.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_ns += elapsed_ns;
    }

    /// Point-in-time copy of everything the registry holds.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .hists
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.summarize()))
                .collect(),
            labeled: self
                .labeled
                .read()
                .iter()
                .map(|(family, fam)| {
                    (
                        family.clone(),
                        fam.cells
                            .iter()
                            .map(|(k, h)| (k.clone(), h.summarize()))
                            .collect(),
                    )
                })
                .collect(),
            spans: self
                .spans
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Zeroes counters and histograms and forgets span aggregates.
    /// Existing [`Counter`] handles stay wired to their (zeroed) cells.
    /// Gauges keep their values: they state current process facts (e.g.
    /// `runtime.threads`), which resetting per-unit-of-work would erase.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.cell.store(0, Ordering::Relaxed);
        }
        for h in self.hists.read().values() {
            h.reset();
        }
        for fam in self.labeled.read().values() {
            for cell in fam.cells.values() {
                cell.reset();
            }
        }
        self.spans.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_last_write_wins_and_survive_reset() {
        let r = Registry::new();
        r.set_gauge("threads", 4);
        r.set_gauge("threads", 8);
        assert_eq!(r.snapshot().gauges["threads"], 8);
        assert!(!r.snapshot().gauges.contains_key("never"));
        r.reset();
        assert_eq!(r.snapshot().gauges["threads"], 8, "reset must keep gauges");
    }

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(r.counter_value("x"), 3);
        assert_eq!(r.counter_value("never"), 0);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(5);
        r.reset();
        assert_eq!(r.counter_value("x"), 0);
        c.incr();
        assert_eq!(r.counter_value("x"), 1);
    }

    #[test]
    fn spans_aggregate() {
        let r = Registry::new();
        r.record_span("a/b", 100);
        r.record_span("a/b", 50);
        let spans = r.snapshot().spans;
        assert_eq!(
            spans.get("a/b"),
            Some(&SpanStat {
                count: 2,
                total_ns: 150
            })
        );
        assert_eq!(spans.get("a"), None);
    }

    #[test]
    fn labeled_cells_are_keyed_by_sorted_escaped_labels() {
        let r = Registry::new();
        r.observe_labeled("lat", &[("op", "solve"), ("alg", "greedy")], 7);
        // Order of the label slice must not matter.
        r.observe_labeled("lat", &[("alg", "greedy"), ("op", "solve")], 9);
        r.observe_labeled("lat", &[("op", "bounds"), ("alg", "greedy")], 1);
        let snap = r.snapshot();
        let fam = &snap.labeled["lat"];
        assert_eq!(fam.len(), 2);
        let cell = &fam["alg=\"greedy\",op=\"solve\""];
        assert_eq!((cell.count, cell.sum), (2, 16));
        assert_eq!(fam["alg=\"greedy\",op=\"bounds\""].count, 1);
        r.reset();
        assert_eq!(
            r.snapshot().labeled["lat"]["alg=\"greedy\",op=\"solve\""].count,
            0
        );
    }

    #[test]
    fn label_values_escape_quotes_and_backslashes() {
        assert_eq!(
            label_string(&[("g", "a\"b\\c\nd")]),
            "g=\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(label_string(&[]), "");
    }

    #[test]
    fn family_bounds_are_fixed_by_first_use() {
        let r = Registry::new();
        let a = r.labeled_histogram("f", &[("x", "1")], &[10, 20]);
        let b = r.labeled_histogram("f", &[("x", "2")], &[99]);
        assert_eq!(a.bounds(), b.bounds(), "later bounds are ignored");
    }

    #[test]
    fn concurrent_counter_increments_from_scoped_threads() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = r.counter("hits");
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(r.counter_value("hits"), 80_000);
    }
}
