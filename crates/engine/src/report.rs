//! Typed per-day and per-investigation reports.

use crate::alert::Alert;
use earlybird_core::BpOutcome;
use earlybird_logmodel::{Day, DomainSym};
use earlybird_pipeline::{DnsReductionCounts, NormalizationCounts, ProxyReductionCounts};
use serde::{Deserialize, Serialize};

/// Per-stage counters for one ingested day — the Fig. 2 reduction series
/// plus the detection-stage tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageCounters {
    /// Raw records in the batch.
    pub records_in: usize,
    /// Log lines that failed to parse during streaming line ingestion.
    pub parse_errors: usize,
    /// Distinct folded domains before filtering ("All" in Fig. 2).
    pub domains_all: usize,
    /// After dropping internal destinations.
    pub domains_after_internal_filter: usize,
    /// After additionally dropping internal-server sources.
    pub domains_after_server_filter: usize,
    /// New destinations (never seen in the history).
    pub new_destinations: usize,
    /// Rare destinations (new + unpopular) — the detection candidates.
    pub rare_destinations: usize,
    /// Rare domains with at least one automated (beacon-like) host.
    pub automated_domains: usize,
    /// Automated domains whose score cleared the C&C threshold.
    pub cc_detections: usize,
    /// Belief-propagation iterations run during auto-investigation.
    pub bp_iterations: usize,
    /// Domains labeled malicious during auto-investigation (seeds included).
    pub bp_labeled: usize,
    /// Alerts emitted while ingesting the day.
    pub alerts_emitted: usize,
    /// Wall-clock ingest time in microseconds.
    ///
    /// This is the one nondeterministic field: measurement, not state. It
    /// is excluded from the snapshot format (restored reports carry 0) and
    /// from [`StageCounters::deterministic_eq`]; per-stage timing detail
    /// lives in the metrics registry (`engine_stage_micros`), not here.
    pub wall_micros: u64,
}

impl StageCounters {
    /// Equality over every deterministic counter — everything except
    /// `wall_micros`, which is wall-clock measurement noise. This is the
    /// comparison every equivalence suite (streaming vs batch, restored vs
    /// uninterrupted, served vs embedded) should use: two runs over the
    /// same records must agree on all of it, bit for bit.
    pub fn deterministic_eq(&self, other: &StageCounters) -> bool {
        let strip = |s: &StageCounters| StageCounters { wall_micros: 0, ..*s };
        strip(self) == strip(other)
    }
}

/// One scored C&C candidate: a rare domain with automated connections.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcCandidate {
    /// The (folded) domain.
    pub domain: DomainSym,
    /// Resolved name.
    pub name: String,
    /// Model score (regression score, or automated-host count under the
    /// LANL heuristic).
    pub score: f64,
    /// Number of hosts with automated connections to the domain.
    pub auto_hosts: usize,
    /// Estimated beacon period of the first automated host.
    pub period_secs: Option<u64>,
    /// Whether the full detector (threshold + model-specific rules) fired.
    pub detected: bool,
}

/// The typed result of [`crate::Engine::ingest_day`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DayReport {
    /// The ingested day.
    pub day: Day,
    /// Whether the day fell in the bootstrap (profiling-only) period.
    pub bootstrap: bool,
    /// Whether this day had already been ingested; replays are a no-op (the
    /// cross-day popularity profiles must not be double-counted) and return
    /// the stored counters with this flag set.
    pub duplicate: bool,
    /// Per-stage counters.
    pub stages: StageCounters,
    /// DNS reduction counters (DNS batches only).
    pub dns_counts: Option<DnsReductionCounts>,
    /// Proxy reduction counters (proxy batches only).
    pub proxy_counts: Option<ProxyReductionCounts>,
    /// Normalization counters (proxy batches only).
    pub norm_counts: Option<NormalizationCounts>,
    /// Every automated rare domain with its score (operation days only),
    /// sorted by descending score then domain for determinism.
    pub cc_candidates: Vec<CcCandidate>,
    /// Auto-investigation outcome (when the engine is configured to expand
    /// detections through belief propagation during ingest).
    pub outcome: Option<BpOutcome>,
    /// Alerts emitted for this day, in delivery order.
    pub alerts: Vec<Alert>,
}

impl DayReport {
    /// The detected C&C candidates (score cleared the threshold).
    pub fn detections(&self) -> impl Iterator<Item = &CcCandidate> {
        self.cc_candidates.iter().filter(|c| c.detected)
    }
}

/// The result of an explicit [`crate::Engine::investigate`] call.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvestigationReport {
    /// The investigated day.
    pub day: Day,
    /// The raw belief-propagation outcome with per-iteration traces.
    pub outcome: BpOutcome,
    /// Whether seed domains count as detections (no-hint mode reports its
    /// own C&C seeds; SOC-hints mode does not re-count the hints).
    pub count_seeds: bool,
    /// Alerts emitted for this investigation, in delivery order.
    pub alerts: Vec<Alert>,
}

impl InvestigationReport {
    /// Names of the reported domains, respecting `count_seeds`.
    pub fn reported_names(&self) -> Vec<String> {
        self.alerts.iter().map(|a| a.name.clone()).collect()
    }
}

/// Summary of an enterprise training pass
/// ([`crate::Engine::train_enterprise`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Training C&C samples used.
    pub cc_samples: usize,
    /// Training similarity samples used.
    pub sim_samples: usize,
    /// The fitted C&C model's R².
    pub cc_r_squared: f64,
    /// Per-feature `(name, weight, t-statistic, significant)` rows of the
    /// fitted C&C model.
    pub cc_summary: Vec<(String, f64, f64, bool)>,
    /// The fitted similarity model's R².
    pub sim_r_squared: f64,
    /// Per-feature `(name, weight, t-statistic, significant)` rows of the
    /// fitted similarity model.
    pub sim_summary: Vec<(String, f64, f64, bool)>,
    /// Population-average `(DomAge, DomValidity)` WHOIS defaults installed
    /// into the engine.
    pub whois_defaults: (f64, f64),
}
