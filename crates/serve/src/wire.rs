//! The JSON request/response bodies of the service API, as typed structs
//! shared by the daemon and the [`crate::client`] — one definition per
//! shape, so the two sides cannot drift.
//!
//! Span payloads are **not** JSON: `POST .../spans` carries raw
//! tab-separated log lines (the `earlybird_logmodel::codec` interchange
//! format) as `text/plain`, which is what keeps the service ingest path
//! within a small constant of the library path.

use crate::error::ServeError;
use earlybird_engine::{Engine, EngineBuilder, Investigation};
use earlybird_logmodel::{DatasetMeta, Day, HostId, HostKind};
use serde::{Deserialize, Serialize};

/// `PUT /v1/{tenant}` body: everything needed to build (and later
/// restore) a tenant's engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Number of internal hosts.
    pub n_hosts: u32,
    /// Per-host kinds (`"workstation"` / `"server"`), indexed by host id;
    /// hosts beyond the list default to workstations.
    pub host_kinds: Vec<String>,
    /// Domain suffixes internal to the enterprise (dropped at reduction).
    pub internal_suffixes: Vec<String>,
    /// Bootstrap (profiling-only) days at the start of the window.
    pub bootstrap_days: u32,
    /// Total days in the observation window.
    pub total_days: u32,
    /// Run belief propagation from each day's C&C detections at ingest.
    pub auto_investigate: bool,
    /// SOC seed (IOC) domain names.
    pub soc_seeds: Vec<String>,
    /// Keep only the newest N operation days investigable (0 = keep all).
    pub retain_days: u64,
}

impl TenantSpec {
    /// A LANL-shaped spec with `n_hosts` workstations and no options.
    pub fn lanl(n_hosts: u32, bootstrap_days: u32, total_days: u32) -> Self {
        TenantSpec {
            n_hosts,
            host_kinds: Vec::new(),
            internal_suffixes: Vec::new(),
            bootstrap_days,
            total_days,
            auto_investigate: false,
            soc_seeds: Vec::new(),
            retain_days: 0,
        }
    }

    /// The dataset metadata this spec describes.
    ///
    /// # Errors
    ///
    /// `400 bad_request` for an unknown host kind.
    pub fn dataset_meta(&self) -> Result<DatasetMeta, ServeError> {
        let mut kinds = Vec::with_capacity(self.n_hosts as usize);
        for (i, kind) in self.host_kinds.iter().enumerate() {
            kinds.push(match kind.as_str() {
                "workstation" => HostKind::Workstation,
                "server" => HostKind::Server,
                other => {
                    return Err(ServeError::bad_request(format!(
                        "host_kinds[{i}] is {other:?}; expected \"workstation\" or \"server\""
                    )))
                }
            });
        }
        kinds.resize(self.n_hosts as usize, HostKind::Workstation);
        Ok(DatasetMeta {
            n_hosts: self.n_hosts,
            host_kinds: kinds,
            internal_suffixes: self.internal_suffixes.clone(),
            bootstrap_days: self.bootstrap_days,
            total_days: self.total_days,
        })
    }

    /// An [`EngineBuilder`] carrying this spec's options (LANL pipeline
    /// defaults; the caller attaches its alert log and builds).
    pub fn builder(&self) -> EngineBuilder {
        let mut b = EngineBuilder::lanl()
            .auto_investigate(self.auto_investigate)
            .soc_seeds(self.soc_seeds.iter().cloned());
        if self.retain_days > 0 {
            b = b.retain_days(self.retain_days as usize);
        }
        b
    }
}

/// `POST .../spans` response: what the engine absorbed so far this day.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanAck {
    /// The day pushed into.
    pub day: u32,
    /// Records accumulated for the day so far (0 for duplicate replays).
    pub records_pushed: u64,
    /// Parse failures in this span.
    pub span_parse_errors: u64,
    /// Whether the day was already ingested (the span was a no-op).
    pub duplicate: bool,
}

/// `POST .../finish` response: the day's report plus its durability
/// receipt — a `200` means the store commit completed *before* this
/// response was written.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FinishAck {
    /// The sealed day's full report (alerts included, in delivery order).
    pub report: earlybird_engine::DayReport,
    /// Store manifest generation after the commit (unchanged for
    /// duplicate replays, which write nothing).
    pub generation: u64,
    /// Whether this response is backed by a completed store commit.
    /// Always `true` on `200`; duplicates are durable from their first
    /// finish.
    pub durable: bool,
}

/// `GET .../alerts?since=N` response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlertsPage {
    /// Alerts with `sequence >= since`, in sequence order.
    pub alerts: Vec<earlybird_engine::Alert>,
    /// Pass this as the next `since` to read only newer alerts.
    pub next_since: u64,
}

/// `GET .../reports` response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReportsPage {
    /// Stored (counters-only) reports, ascending by day.
    pub reports: Vec<earlybird_engine::DayReport>,
}

/// `POST .../investigate` body: one belief-propagation request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvestigateRequest {
    /// The retained day to investigate.
    pub day: u32,
    /// Seed mode: `"hint_hosts"`, `"seed_names"`, or `"no_hint"`.
    pub mode: String,
    /// Seed host ids (`hint_hosts` mode).
    pub hosts: Vec<u32>,
    /// Seed domain names (`seed_names` mode).
    pub names: Vec<String>,
    /// Override for the similarity threshold `T_s` (ignored when `null`).
    pub sim_threshold: Option<f64>,
    /// Override for whether seeds count as detections.
    pub count_seeds: Option<bool>,
}

impl InvestigateRequest {
    /// A `no_hint` request for `day`.
    pub fn no_hint(day: u32) -> Self {
        InvestigateRequest {
            day,
            mode: "no_hint".into(),
            hosts: Vec::new(),
            names: Vec::new(),
            sim_threshold: None,
            count_seeds: None,
        }
    }

    /// A `hint_hosts` request.
    pub fn hint_hosts(day: u32, hosts: impl IntoIterator<Item = u32>) -> Self {
        InvestigateRequest {
            hosts: hosts.into_iter().collect(),
            mode: "hint_hosts".into(),
            ..Self::no_hint(day)
        }
    }

    /// A `seed_names` request.
    pub fn seed_names<I: IntoIterator<Item = S>, S: Into<String>>(day: u32, names: I) -> Self {
        InvestigateRequest {
            names: names.into_iter().map(Into::into).collect(),
            mode: "seed_names".into(),
            ..Self::no_hint(day)
        }
    }

    /// The engine-level investigation this request describes.
    ///
    /// # Errors
    ///
    /// `400 bad_request` for an unknown mode.
    pub fn to_investigation(&self) -> Result<Investigation, ServeError> {
        let mut inv = match self.mode.as_str() {
            "hint_hosts" => {
                Investigation::from_hint_hosts(self.hosts.iter().map(|&h| HostId::new(h)))
            }
            "seed_names" => Investigation::from_seed_names(self.names.iter().cloned()),
            "no_hint" => Investigation::no_hint(),
            other => {
                return Err(ServeError::bad_request(format!(
                "unknown investigation mode {other:?}; expected hint_hosts, seed_names, or no_hint"
            )))
            }
        };
        if let Some(t) = self.sim_threshold {
            inv = inv.sim_threshold(t);
        }
        if let Some(c) = self.count_seeds {
            inv = inv.count_seeds(c);
        }
        Ok(inv)
    }
}

/// One row of `GET /v1/tenants`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSummary {
    /// Tenant name (the store scope it owns).
    pub name: String,
    /// Days with a stored report.
    pub days_ingested: u64,
    /// Days currently open for span pushes.
    pub open_days: u64,
    /// The tenant's current alert cursor (next sequence to be assigned
    /// a position in the log).
    pub next_alert_sequence: u64,
    /// Log lines this daemon rejected while parsing the tenant's spans
    /// (the process-lifetime `serve_span_parse_errors_total` counter; it
    /// resets on restart, unlike `days_ingested`).
    pub span_parse_errors: u64,
    /// Store GC deletions that failed for this tenant
    /// (`store_gc_failures_total`) — the objects leak until the next
    /// open quarantines them; a growing count wants an operator.
    pub gc_failures: u64,
}

/// `GET /v1/tenants` response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantsPage {
    /// All registered tenants, ascending by name.
    pub tenants: Vec<TenantSummary>,
}

/// One drained slow-operation record (`GET /v1/admin/slow-ops`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlowOpWire {
    /// The stage that stalled (`engine_stage_micros` label, e.g. `parse`).
    pub op: String,
    /// How long the operation took.
    pub micros: u64,
    /// The threshold it exceeded to land in the ring.
    pub threshold_micros: u64,
}

impl From<earlybird_obs::SlowOp> for SlowOpWire {
    fn from(op: earlybird_obs::SlowOp) -> Self {
        SlowOpWire { op: op.op, micros: op.micros, threshold_micros: op.threshold_micros }
    }
}

/// `GET /v1/admin/slow-ops` response. Reading drains the daemon's
/// slow-op ring: each record is delivered to exactly one poller.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlowOpsPage {
    /// Records drained by this request, oldest first.
    pub slow_ops: Vec<SlowOpWire>,
}

/// `POST /v1/admin/shutdown` response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShutdownAck {
    /// Tenants whose state was checkpointed during the drain.
    pub tenants_checkpointed: u64,
    /// Open (unfinished) days dropped across all tenants. Dropped spans
    /// were never acked durable; re-push them after restart.
    pub open_days_dropped: u64,
}

/// Parses a `{day}` path segment.
///
/// # Errors
///
/// `400 bad_request` for anything but a `u32`.
pub fn parse_day(segment: &str) -> Result<Day, ServeError> {
    segment
        .parse::<u32>()
        .map(Day::new)
        .map_err(|_| ServeError::bad_request(format!("bad day index {segment:?} (expected a u32)")))
}

// Compile-time proof that the engine (and an open day's state) can be
// shared across the daemon's request threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<Engine>();
    assert_send::<earlybird_engine::DayState>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_spec_round_trips_and_builds_meta() {
        let mut spec = TenantSpec::lanl(4, 2, 10);
        spec.host_kinds = vec!["workstation".into(), "server".into()];
        spec.internal_suffixes = vec!["corp.example".into()];
        spec.soc_seeds = vec!["evil.example".into()];
        let json = serde_json::to_string(&spec).unwrap();
        let back: TenantSpec = serde_json::from_str(&json).unwrap();
        let meta = back.dataset_meta().unwrap();
        assert_eq!(meta.n_hosts, 4);
        assert_eq!(
            meta.host_kinds,
            vec![
                HostKind::Workstation,
                HostKind::Server,
                HostKind::Workstation,
                HostKind::Workstation,
            ]
        );
        assert_eq!(meta.internal_suffixes, vec!["corp.example".to_string()]);

        spec.host_kinds = vec!["toaster".into()];
        let err = spec.dataset_meta().unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn investigate_request_maps_modes() {
        assert!(InvestigateRequest::no_hint(3).to_investigation().is_ok());
        assert!(InvestigateRequest::hint_hosts(3, [0, 2]).to_investigation().is_ok());
        assert!(InvestigateRequest::seed_names(3, ["x.example"]).to_investigation().is_ok());
        let mut bad = InvestigateRequest::no_hint(3);
        bad.mode = "tarot".into();
        assert_eq!(bad.to_investigation().unwrap_err().code, "bad_request");
    }

    #[test]
    fn day_segments_parse_strictly() {
        assert_eq!(parse_day("17").unwrap(), Day::new(17));
        assert!(parse_day("-1").is_err());
        assert!(parse_day("day3").is_err());
        assert!(parse_day("").is_err());
    }
}
