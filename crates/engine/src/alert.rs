//! The typed alert layer: what the engine tells the SOC, and where.

use earlybird_core::LabelReason;
use earlybird_logmodel::{Day, DomainSym, HostId};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Why a domain was flagged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Flagged by the C&C communication detector (`Detect_C&C`).
    CommandAndControl,
    /// Labeled by similarity expansion during belief propagation.
    Related,
    /// Provided as a seed (SOC hint / IOC) and confirmed present today.
    SeedConfirmed,
}

impl Verdict {
    /// Maps a belief-propagation label reason onto an alert verdict.
    pub fn from_reason(reason: LabelReason) -> Self {
        match reason {
            LabelReason::CcDetected => Verdict::CommandAndControl,
            LabelReason::Similarity => Verdict::Related,
            LabelReason::Seed => Verdict::SeedConfirmed,
        }
    }
}

/// One suspicious-domain alert.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Engine-wide monotonically increasing sequence number (delivery
    /// order is deterministic for a deterministic input stream).
    pub sequence: u64,
    /// Day the evidence was observed.
    pub day: Day,
    /// The flagged (folded) domain.
    pub domain: DomainSym,
    /// Resolved domain name.
    pub name: String,
    /// Model score at flagging time (C&C score, similarity score, or 1.0
    /// for confirmed seeds).
    pub score: f64,
    /// Why the domain was flagged.
    pub verdict: Verdict,
    /// Belief-propagation iteration that flagged it (0 for the daily C&C
    /// pass and for seeds).
    pub iteration: usize,
    /// Estimated beacon period, when the C&C detector produced evidence.
    pub period_secs: Option<u64>,
    /// Internal hosts contacting the domain today.
    pub hosts: Vec<HostId>,
}

/// A pluggable alert consumer.
///
/// Sinks receive every alert the engine emits — from the daily ingest cycle
/// and from explicit [`crate::Engine::investigate`] calls — in sequence
/// order.
pub trait AlertSink {
    /// Consumes one alert.
    fn emit(&mut self, alert: &Alert);
}

/// Shared handle to the alerts gathered by a [`CollectingSink`] — also
/// the service's per-tenant alert log.
///
/// Alerts are appended in engine delivery order, which is globally
/// sequence-ordered (sequence numbers are allocated under the sink lock),
/// so cursor reads are a binary search. After a restart a fresh collector
/// starts empty while the engine's sequence counter resumes from the
/// snapshot — so cursors held by clients stay monotone across restarts;
/// they simply see no replayed alerts for days that were already durable.
#[derive(Clone, Debug, Default)]
pub struct CollectedAlerts {
    store: Arc<Mutex<Vec<Alert>>>,
}

impl CollectedAlerts {
    /// A snapshot of all alerts collected so far, in delivery order.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.store.lock().expect("alert store poisoned").clone()
    }

    /// All alerts with `sequence >= since`, in sequence order.
    pub fn since(&self, since: u64) -> Vec<Alert> {
        let log = self.store.lock().expect("alert store poisoned");
        let start = log.partition_point(|a| a.sequence < since);
        log[start..].to_vec()
    }

    /// One past the highest sequence collected (`0` when empty): the
    /// cursor a client should pass to [`CollectedAlerts::since`] to read
    /// only alerts emitted after this call.
    pub fn next_sequence(&self) -> u64 {
        let log = self.store.lock().expect("alert store poisoned");
        log.last().map_or(0, |a| a.sequence + 1)
    }

    /// Number of alerts collected so far.
    pub fn len(&self) -> usize {
        self.store.lock().expect("alert store poisoned").len()
    }

    /// Whether no alert has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory sink; read the results through its [`CollectedAlerts`]
/// handle (which stays valid after the sink moves into the engine).
#[derive(Debug, Default)]
pub struct CollectingSink {
    store: Arc<Mutex<Vec<Alert>>>,
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared handle for reading collected alerts later.
    pub fn handle(&self) -> CollectedAlerts {
        CollectedAlerts { store: Arc::clone(&self.store) }
    }
}

impl AlertSink for CollectingSink {
    fn emit(&mut self, alert: &Alert) {
        self.store.lock().expect("alert store poisoned").push(alert.clone());
    }
}

/// Shared counter of alerts a [`JsonLinesSink`] failed to write (full disk,
/// closed pipe, ...). Stays valid after the sink moves into the engine.
#[derive(Clone, Debug, Default)]
pub struct WriteErrors {
    count: Arc<std::sync::atomic::AtomicU64>,
}

impl WriteErrors {
    /// Number of alerts dropped by the sink so far.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// Streams each alert as one JSON object per line to any writer.
///
/// Write failures never panic the engine; they are counted and observable
/// through [`JsonLinesSink::write_errors`] (and, because alert sequence
/// numbers are gapless, detectable downstream as sequence gaps).
pub struct JsonLinesSink<W: Write> {
    writer: W,
    errors: WriteErrors,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer, errors: WriteErrors::default() }
    }

    /// The shared dropped-write counter, for checking after the sink moves
    /// into the engine.
    pub fn write_errors(&self) -> WriteErrors {
        self.errors.clone()
    }

    /// Unwraps the writer (e.g. to inspect an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> AlertSink for JsonLinesSink<W> {
    fn emit(&mut self, alert: &Alert) {
        let line = serde_json::to_string(alert).expect("alerts serialize");
        if writeln!(self.writer, "{line}").is_err() {
            self.errors.count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }
}

/// Invokes a closure per alert.
pub struct CallbackSink<F: FnMut(&Alert)> {
    callback: F,
}

impl<F: FnMut(&Alert)> CallbackSink<F> {
    /// Wraps `callback`.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback }
    }
}

impl<F: FnMut(&Alert)> AlertSink for CallbackSink<F> {
    fn emit(&mut self, alert: &Alert) {
        (self.callback)(alert);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(sequence: u64) -> Alert {
        Alert {
            sequence,
            day: Day::new(3),
            domain: {
                let i = earlybird_logmodel::DomainInterner::new();
                i.intern("x.example")
            },
            name: "x.example".into(),
            score: 0.5,
            verdict: Verdict::CommandAndControl,
            iteration: 0,
            period_secs: Some(600),
            hosts: vec![HostId::new(4)],
        }
    }

    #[test]
    fn collecting_sink_preserves_order() {
        let sink = CollectingSink::new();
        let handle = sink.handle();
        let mut sink: Box<dyn AlertSink> = Box::new(sink);
        for s in 0..5 {
            sink.emit(&alert(s));
        }
        let got = handle.snapshot();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].sequence < w[1].sequence));
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_line() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(&alert(0));
        sink.emit(&alert(1));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"x.example\"")));
    }

    #[test]
    fn json_lines_sink_counts_write_failures() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(FailingWriter);
        let errors = sink.write_errors();
        sink.emit(&alert(0));
        sink.emit(&alert(1));
        assert_eq!(errors.count(), 2, "dropped alerts are observable");
    }

    #[test]
    fn alert_log_cursor_reads_are_half_open() {
        let sink = CollectingSink::new();
        let log = sink.handle();
        assert_eq!(log.next_sequence(), 0, "empty log starts the cursor at 0");
        let mut sink: Box<dyn AlertSink> = Box::new(sink);
        for s in [2u64, 5, 9] {
            sink.emit(&alert(s));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.since(0).len(), 3);
        assert_eq!(log.since(3).iter().map(|a| a.sequence).collect::<Vec<_>>(), vec![5, 9]);
        assert_eq!(log.since(9).len(), 1, "since is inclusive");
        assert_eq!(log.next_sequence(), 10);
        assert!(log.since(log.next_sequence()).is_empty(), "next_sequence sees only new alerts");
    }

    #[test]
    fn callback_sink_invokes() {
        let mut seen = Vec::new();
        {
            let mut sink = CallbackSink::new(|a: &Alert| seen.push(a.sequence));
            sink.emit(&alert(7));
        }
        assert_eq!(seen, vec![7]);
    }
}
