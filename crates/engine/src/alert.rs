//! The typed alert layer: what the engine tells the SOC.

use earlybird_core::LabelReason;
use earlybird_logmodel::{Day, DomainSym, HostId};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// The engine's optional alert log: every alert the engine emits — from
/// the daily ingest cycle and from explicit [`crate::Engine::investigate`]
/// calls — appended in sequence order. Attach one with
/// [`crate::EngineBuilder::alert_log`]; it is the service's per-tenant
/// alert log. `Default` makes an empty log, and clones share it.
///
/// Sequence numbers are allocated under the log's lock, so the log is
/// globally sequence-ordered and cursor reads are a binary search. After a
/// restart a fresh log starts empty while the engine's sequence counter
/// resumes from the snapshot — so cursors held by clients stay monotone
/// across restarts; they simply see no replayed alerts for days that were
/// already durable.
#[derive(Clone, Debug, Default)]
pub struct CollectedAlerts {
    store: Arc<Mutex<Vec<Alert>>>,
}

impl CollectedAlerts {
    /// Locks the log for appending (the engine numbers alerts under it).
    pub(crate) fn lock(&self) -> MutexGuard<'_, Vec<Alert>> {
        self.store.lock().expect("alert store poisoned")
    }

    /// A snapshot of all alerts collected so far, in sequence order.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.lock().clone()
    }

    /// All alerts with `sequence >= since`, in sequence order.
    pub fn since(&self, since: u64) -> Vec<Alert> {
        let log = self.lock();
        let start = log.partition_point(|a| a.sequence < since);
        log[start..].to_vec()
    }

    /// Number of alerts collected so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no alert has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn alert_log_cursor_reads_are_half_open() {
        let log = CollectedAlerts::default();
        assert!(log.is_empty());
        log.clone().lock().extend([2u64, 5, 9].map(alert));
        assert_eq!(log.len(), 3, "clones share one log");
        assert_eq!(log.snapshot(), log.since(0));
        assert_eq!(log.since(3).iter().map(|a| a.sequence).collect::<Vec<_>>(), vec![5, 9]);
        assert_eq!(log.since(9).len(), 1, "since is inclusive");
        assert!(log.since(10).is_empty(), "a cursor past the last alert reads nothing");
    }
}
