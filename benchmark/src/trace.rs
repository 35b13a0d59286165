//! Benchmark-owned spans around the calls into each layer.
//!
//! Every facade call the benchmark makes runs inside [`Tracer::span`],
//! which always times it (the end-to-end metrics are built from those
//! durations) and, in a traced run only, also records the span in memory:
//! name, start, end, parent and trial id. The program's own stage timers
//! (`engine_stage_micros`, `store_*_micros`) are attached to the span
//! they run inside as per-trial aggregates, so a layer's self time is its
//! span minus everything measured beneath it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
    trial: u32,
}

/// Time the program's own registry attributes to a stage that runs
/// inside every `parent`-named span of one trial.
struct Aggregate {
    parent: &'static str,
    name: &'static str,
    secs: f64,
    trial: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
    trial: u32,
}

pub struct Tracer {
    record: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// One row of the layer table.
pub struct LayerRow {
    pub name: &'static str,
    pub depth: usize,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
    /// Read from the program's registry rather than timed by a span.
    pub from_registry: bool,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer { record, epoch: Instant::now(), inner: RefCell::new(Inner::default()) }
    }

    /// Tags the spans that follow with a trial id.
    pub fn set_trial(&self, trial: u32) {
        self.inner.borrow_mut().trial = trial;
    }

    /// Runs `f` inside a span and returns its result with its wall time
    /// in seconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = self.record.then(|| {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let (parent, trial) = (inner.open.last().copied(), inner.trial);
            let start_us = (start - self.epoch).as_micros() as u64;
            inner.spans.push(SpanRec { name, start_us, end_us: start_us, parent, trial });
            inner.open.push(idx);
            idx
        });
        let out = f();
        let elapsed = start.elapsed();
        if let Some(idx) = slot {
            let mut inner = self.inner.borrow_mut();
            inner.spans[idx].end_us = (start + elapsed - self.epoch).as_micros() as u64;
            inner.open.pop();
        }
        (out, elapsed.as_secs_f64())
    }

    /// Attaches registry-measured stage time to the `parent`-named spans
    /// of the current trial.
    pub fn aggregate(&self, parent: &'static str, name: &'static str, secs: f64) {
        if self.record {
            let mut inner = self.inner.borrow_mut();
            let trial = inner.trial;
            inner.aggregates.push(Aggregate { parent, name, secs, trial });
        }
    }

    /// The layer table: spans grouped by name in first-seen tree order,
    /// each with its self time (its duration minus its child spans and
    /// registry aggregates).
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let inner = self.inner.borrow();
        let mut children_us = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                children_us[p] += s.end_us - s.start_us;
            }
        }
        // (parent name, name) identifies a table row, so a span name used
        // under two parents is reported under each.
        type Key = (Option<&'static str>, &'static str);
        let mut order: Vec<Key> = Vec::new();
        let mut rows: BTreeMap<Key, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in inner.spans.iter().enumerate() {
            let key = (s.parent.map(|p| inner.spans[p].name), s.name);
            let row = rows.entry(key).or_insert_with(|| {
                order.push(key);
                (0, 0.0, 0.0)
            });
            let total = (s.end_us - s.start_us) as f64 / 1e6;
            row.0 += 1;
            row.1 += total;
            row.2 += total - children_us[i] as f64 / 1e6;
        }
        let mut agg_rows: Vec<(&'static str, &'static str, f64)> = Vec::new();
        for a in &inner.aggregates {
            match agg_rows.iter_mut().find(|r| r.0 == a.parent && r.1 == a.name) {
                Some(r) => r.2 += a.secs,
                None => agg_rows.push((a.parent, a.name, a.secs)),
            }
        }

        let mut out = Vec::new();
        fn emit(
            parent: Option<&'static str>,
            depth: usize,
            order: &[(Option<&'static str>, &'static str)],
            rows: &BTreeMap<(Option<&'static str>, &'static str), (usize, f64, f64)>,
            aggs: &[(&'static str, &'static str, f64)],
            out: &mut Vec<LayerRow>,
        ) {
            for key in order.iter().filter(|k| k.0 == parent) {
                let (calls, total_s, span_self) = rows[key];
                let mine: Vec<_> = aggs.iter().filter(|a| a.0 == key.1).collect();
                let agg_total: f64 = mine.iter().map(|a| a.2).sum();
                out.push(LayerRow {
                    name: key.1,
                    depth,
                    calls,
                    total_s,
                    self_s: span_self - agg_total,
                    from_registry: false,
                });
                for a in mine {
                    out.push(LayerRow {
                        name: a.1,
                        depth: depth + 1,
                        calls: 0,
                        total_s: a.2,
                        self_s: a.2,
                        from_registry: true,
                    });
                }
                emit(Some(key.1), depth + 1, order, rows, aggs, out);
            }
        }
        emit(None, 0, &order, &rows, &agg_rows, &mut out);
        out
    }

    /// Total seconds of every span named `name`, and of its direct child
    /// spans.
    pub fn coverage(&self, name: &str) -> (f64, f64) {
        let inner = self.inner.borrow();
        let (mut total, mut covered) = (0u64, 0u64);
        for s in &inner.spans {
            if s.name == name {
                total += s.end_us - s.start_us;
            } else if s.parent.is_some_and(|p| inner.spans[p].name == name) {
                covered += s.end_us - s.start_us;
            }
        }
        (total as f64 / 1e6, covered as f64 / 1e6)
    }

    /// The recorded spans and aggregates as one JSON document.
    pub fn to_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == inner.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"trial\":{}}}{sep}",
                s.name, s.start_us, s.end_us, s.trial
            );
        }
        out.push_str("],\"registry_aggregates\":[\n");
        for (i, a) in inner.aggregates.iter().enumerate() {
            let sep = if i + 1 == inner.aggregates.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"parent_name\":\"{}\",\"name\":\"{}\",\"secs\":{},\"trial\":{}}}{sep}",
                a.parent, a.name, a.secs, a.trial
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_aggregates() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            tracer.span("inner", || ());
        });
        tracer.aggregate("inner", "stage", 0.001);
        let table = tracer.layer_table();
        let names: Vec<_> = table.iter().map(|r| (r.name, r.depth, r.calls)).collect();
        assert_eq!(names, vec![("outer", 0, 1), ("inner", 1, 2), ("stage", 2, 0)]);
        let (outer, inner) = (&table[0], &table[1]);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!((inner.total_s - inner.self_s - 0.001).abs() < 1e-9);
        let (total, covered) = tracer.coverage("outer");
        assert!(covered <= total && covered >= 0.005);
        assert!(tracer.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn an_untraced_run_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.span("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.layer_table().is_empty());
    }
}
