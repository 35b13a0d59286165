//! The registry: metric identities over lock-free cells.

use crate::render::{HistogramSnapshot, MetricsSnapshot, Sample, SampleValue};
use crate::span::{SlowOp, SlowOps, Span, StageTimer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default wall-time bucket upper bounds in microseconds, spanning 50µs to
/// 10s — wide enough for a parse span and a full-chain compaction alike.
pub const LATENCY_BOUNDS_MICROS: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Events kept in the slow-op ring buffer before the oldest is dropped.
const SLOW_OP_CAP: usize = 256;

/// A monotone counter handle; cache it and call [`Counter::add`] on the
/// hot path (one relaxed `fetch_add`).
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge handle (current level, not a total).
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared storage of one histogram: fixed ascending bucket upper bounds,
/// per-bucket counts (`bounds.len() + 1` for the overflow bucket), and the
/// running sum/count. All plain atomics — an observation is three relaxed
/// `fetch_add`s.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    pub(crate) bounds: Arc<[u64]>,
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: Arc<[u64]>) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell { bounds, buckets, sum: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        // First bound >= v: `le` semantics (bucket b counts v <= b).
        let idx = self.cell.bounds.partition_point(|&b| v > b);
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}

/// What kind of cell an entry holds.
#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric's help text and cell; its identity is its key.
#[derive(Debug)]
struct Entry {
    help: &'static str,
    cell: Cell,
}

/// A metric's identity: name plus the sorted label set.
type Identity = (&'static str, Vec<(String, String)>);

/// The process-wide (or per-subsystem) metric registry. See the crate docs
/// for the concurrency model; construction points are
/// [`MetricsRegistry::new`] (instrumented) and
/// [`MetricsRegistry::disabled`] (spans skip the clock).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Every registered metric in `(name, labels)` order. Registration and
    /// reads lock it; handles hold their cells and never do.
    entries: Mutex<BTreeMap<Identity, Entry>>,
    slow: Arc<SlowOps>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry (the default everywhere instrumentation is
    /// wired).
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A registry whose [`Span`]s never read the clock — counters and
    /// gauges still work (their cost is negligible), but stage timings
    /// record nothing. This is the honest "uninstrumented" baseline for
    /// overhead measurements.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            entries: Mutex::new(BTreeMap::new()),
            slow: Arc::new(SlowOps::new(SLOW_OP_CAP)),
        }
    }

    /// Registers (or finds) a counter under `(name, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the identity is already registered as a different kind —
    /// a programming error, caught loudly.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.register(name, help, labels, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(cell) => Counter { cell },
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or finds) a gauge under `(name, labels)`.
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, || Cell::Gauge(Arc::new(AtomicI64::new(0)))) {
            Cell::Gauge(cell) => Gauge { cell },
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or finds) a fixed-bucket histogram under `(name,
    /// labels)`. When the identity already exists its original bounds are
    /// kept (bounds are part of the first registration, not the identity).
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::counter`].
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        let make = || Cell::Histogram(Arc::new(HistogramCell::new(bounds.into())));
        match self.register(name, help, labels, make) {
            Cell::Histogram(cell) => Histogram { cell },
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// A wall-time histogram in microseconds over
    /// [`LATENCY_BOUNDS_MICROS`].
    pub fn latency_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        self.histogram(name, help, labels, &LATENCY_BOUNDS_MICROS)
    }

    /// A reusable stage timer over a latency histogram: cache it, then
    /// [`StageTimer::start`] a [`Span`] per operation. Observations past
    /// the slow-op threshold are also recorded as [`SlowOp`] events.
    pub fn timer(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> StageTimer {
        let hist = self.latency_histogram(name, help, labels);
        let op = render_op(name, labels);
        StageTimer::new(self.enabled, hist, op.into(), Arc::clone(&self.slow))
    }

    /// A stage timer on the shared `stage_micros{stage=...}` series — the
    /// per-pipeline-stage wall-time histogram family.
    pub fn stage_timer(&self, stage: &str, extra: &[(&str, &str)]) -> StageTimer {
        let mut labels: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 1);
        labels.push(("stage", stage));
        labels.extend(extra.iter().copied());
        self.timer("stage_micros", "Wall time per pipeline stage in microseconds", &labels)
    }

    /// One-shot convenience: registers `stage_micros{stage=...}` and starts
    /// a span — for cold paths (restore, compaction) where caching a
    /// [`StageTimer`] buys nothing.
    pub fn span(&self, stage: &str) -> Span {
        self.stage_timer(stage, &[]).start()
    }

    /// Sets the slow-op threshold (default 1s); spans at or above it emit
    /// a [`SlowOp`] event.
    pub fn set_slow_op_threshold_micros(&self, micros: u64) {
        self.slow.set_threshold(micros);
    }

    /// Drains the recorded slow-op events (oldest first).
    pub fn take_slow_ops(&self) -> Vec<SlowOp> {
        self.slow.take()
    }

    /// A point-in-time read of every registered metric. Runs concurrently
    /// with writers: values are loaded per-atomic, so totals are monotone
    /// between snapshots but one snapshot is not a cross-metric
    /// transaction.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let samples: Vec<Sample> = entries
            .iter()
            .map(|((name, labels), e)| Sample {
                name: name.to_string(),
                labels: labels.clone(),
                help: e.help,
                value: match &e.cell {
                    Cell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => SampleValue::Gauge(g.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (deterministic ordering: by name, then labels).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// The registration slow path: find the identity, or insert a new
    /// entry under it.
    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = entries.entry((name, labels)).or_insert_with(|| Entry { help, cell: make() });
        clone_cell(&entry.cell)
    }
}

fn clone_cell(cell: &Cell) -> Cell {
    match cell {
        Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
        Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
        Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
    }
}

/// The human-readable operation tag slow-op events carry:
/// `name{k=v,...}` (or the bare name without labels).
fn render_op(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_name_plus_sorted_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits", "h", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("hits", "h", &[("y", "2"), ("x", "1")]);
        let c = reg.counter("hits", "h", &[("x", "other")]);
        a.add(3);
        b.add(4);
        c.inc();
        assert_eq!(a.get(), 7, "label order does not split the identity");
        assert_eq!(c.get(), 1);
        assert_eq!(reg.snapshot().counter_sum("hits", &[]), 8);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m", "h", &[]);
        let _ = reg.gauge("m", "h", &[]);
    }

    #[test]
    fn histogram_buckets_follow_le_semantics() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "h", &[], &[10, 100]);
        for v in [5, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hist = snap.histogram("lat", &[]).expect("registered");
        assert_eq!(hist.buckets, vec![2, 2, 2], "le=10 counts v<=10; overflow counts v>100");
        assert_eq!(hist.count, 6);
        assert_eq!(hist.sum, 5 + 10 + 11 + 100 + 101 + 5_000);
        assert_eq!(hist.cumulative(), vec![2, 4, 6]);
    }

    #[test]
    fn gauges_track_levels() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", "h", &[("pool", "conn")]);
        g.inc();
        g.inc();
        g.dec();
        g.add(10);
        assert_eq!(g.get(), 11);
        assert_eq!(reg.snapshot().gauge_sum("depth", &[("pool", "conn")]), 11);
    }

    #[test]
    fn spans_record_into_stage_histograms_and_slow_ops() {
        let reg = MetricsRegistry::new();
        reg.set_slow_op_threshold_micros(0); // everything is "slow"
        {
            let _span = reg.span("unit_test_stage");
        }
        let timer = reg.stage_timer("unit_test_stage", &[("tenant", "t0")]);
        timer.observe_micros(42);
        let snap = reg.snapshot();
        let total = snap.histogram_totals("stage_micros", &[("stage", "unit_test_stage")]);
        assert_eq!(total.count, 2);
        let slow = reg.take_slow_ops();
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().any(|s| s.op.contains("unit_test_stage")));
        assert!(reg.take_slow_ops().is_empty(), "take drains");
    }

    #[test]
    fn disabled_registry_spans_are_inert_but_counters_work() {
        let reg = MetricsRegistry::disabled();
        reg.set_slow_op_threshold_micros(0);
        {
            let _span = reg.span("cold");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histogram_totals("stage_micros", &[]).count, 0);
        assert!(reg.take_slow_ops().is_empty());
        let c = reg.counter("still_counts", "h", &[]);
        c.inc();
        assert_eq!(snap.counter_sum("still_counts", &[]), 0, "snapshot predates the inc");
        assert_eq!(reg.snapshot().counter_sum("still_counts", &[]), 1);
    }
}
