//! One trial of the daemon path: an `earlybird-serve` daemon on
//! [`LocalFsBackend`], its tenants fed alternately, day by day, from one
//! keep-alive [`ServeClient`] in a closed loop — `push_span`×N →
//! `finish_day` → `alerts` + `report` — then investigations over the
//! wire, a graceful shutdown, a timed cold [`Server::bind`] over the same
//! root, and an offline compaction of every tenant's chain.

use crate::checks::Checks;
use crate::library::{report_json, tally, LibraryTrial};
use crate::trace::Tracer;
use crate::worlds::{Probe, Tenant, World};
use earlybird::engine::{
    LifecycleConfig, LocalFsBackend, MetricsRegistry, ObjectStore, Persistence, SnapshotPolicy,
    StoreDir,
};
use earlybird::logmodel::HostKind;
use earlybird::serve::{
    ClientError, InvestigateRequest, ServeClient, Server, ServerConfig, TenantSpec,
};
use std::path::Path;
use std::sync::Arc;

pub struct ServeOpts<'a> {
    pub tracer: &'a Tracer,
    /// `true`: `ServerConfig::default()`, the enabled registry operators
    /// run. `false`: a disabled registry, the untraced arm of an overhead
    /// pair.
    pub registry: bool,
    /// The same spans through the library, to compare every answer with.
    pub reference: Option<&'a LibraryTrial>,
    pub root: &'a Path,
}

#[derive(Default)]
pub struct ServeTrial {
    pub records: u64,
    pub session_s: f64,
    pub push_ms: Vec<f64>,
    pub day_close_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub investigate_ms: Vec<f64>,
    pub cold_start_s: f64,
    pub compact_s: f64,
    /// Day segments on the tenants' chains when the daemon stopped.
    pub segments: u64,
    pub requests: u64,
    pub rejected: u64,
    pub bytes_in: u64,
    /// Every finish round trip, bootstrap days included.
    pub finish_s: f64,
    /// The part of `finish_s` the daemon spent awaiting the store commit.
    pub finish_commit_s: f64,
    pub true_detections: u64,
    pub false_detections: u64,
}

/// Day segments each tenant's chain holds when the daemon stops. It runs
/// `ServerConfig::default()`, whose compaction trigger folds a chain into
/// its full block inside the commit that takes it past 32 segments. A
/// tenant's creation writes the full block and each of the 59 days a
/// segment: the 33rd commit folds the chain (inside that day's finish
/// round trip), and 26 segments are left for the cold start to replay and
/// the offline compaction to fold. Pinned so that a change to the
/// trigger's default fails a check here instead of silently moving
/// `restore_s` and `compact_s`.
const SEGMENTS_LEFT_PER_TENANT: u64 = 26;

fn spec_for(tenant: &Tenant) -> TenantSpec {
    let meta = &tenant.meta;
    let kinds = meta.host_kinds.iter().map(|k| match k {
        HostKind::Workstation => "workstation".to_owned(),
        HostKind::Server => "server".to_owned(),
    });
    TenantSpec {
        host_kinds: kinds.collect(),
        internal_suffixes: meta.internal_suffixes.clone(),
        auto_investigate: true,
        ..TenantSpec::lanl(meta.n_hosts, meta.bootstrap_days, meta.total_days)
    }
}

fn request_for(probe: &Probe, day: u32) -> InvestigateRequest {
    match probe {
        Probe::HintHosts(hosts) => {
            InvestigateRequest::hint_hosts(day, hosts.iter().map(|h| h.index()))
        }
        Probe::NoHint => InvestigateRequest::no_hint(day),
        Probe::SeedNames(names) => InvestigateRequest::seed_names(day, names.iter().cloned()),
    }
}

/// Counts one request; a refused or failed one is a failed operation.
fn sent<T>(
    out: &mut ServeTrial,
    checks: &mut Checks,
    what: &str,
    result: Result<T, ClientError>,
) -> Option<T> {
    out.requests += 1;
    match result {
        Ok(answer) => {
            checks.count(1, 0, String::new);
            Some(answer)
        }
        Err(e) => {
            checks.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// Runs one trial.
///
/// # Panics
///
/// Panics if the daemon cannot bind a loopback port or its scratch root:
/// without a daemon there is nothing to measure.
pub fn trial(world: &World, opts: &ServeOpts<'_>, checks: &mut Checks) -> ServeTrial {
    let tracer = opts.tracer;
    let mut out = ServeTrial { records: world.records(), ..ServeTrial::default() };
    let config = || {
        let mut cfg = ServerConfig::default();
        if !opts.registry {
            cfg.metrics = Arc::new(MetricsRegistry::disabled());
        }
        cfg
    };
    let backend =
        || Box::new(LocalFsBackend::new(opts.root).expect("daemon root under the scratch dir"));

    let cfg = config();
    let registry = Arc::clone(&cfg.metrics);
    let server = Server::bind(backend(), cfg).expect("bind the daemon on a loopback port");
    let mut client = ServeClient::new(server.addr());
    let handle = server.spawn();
    for tenant in &world.tenants {
        let created = client.create_tenant(&tenant.name, &spec_for(tenant));
        sent(&mut out, checks, "create tenant", created);
    }

    let mut cursors = vec![0u64; world.tenants.len()];
    let ((), session_s) = tracer.span("serve.session", || {
        for d in 0..world.n_days() {
            for (t, tenant) in world.tenants.iter().enumerate() {
                let Some(day) = tenant.days.get(d) else { continue };
                let index = day.day.index();
                let mut pushed = 0;
                for span in &day.spans {
                    let (ack, secs) =
                        tracer.span("serve.push", || client.push_span(&tenant.name, index, span));
                    out.push_ms.push(secs * 1e3);
                    if let Some(ack) = sent(&mut out, checks, "push span", ack) {
                        let lines = ack.records_pushed - pushed + ack.span_parse_errors;
                        checks.lines(lines, ack.span_parse_errors, || {
                            format!("{}: day {index} span has parse errors", tenant.name)
                        });
                        pushed = ack.records_pushed;
                    }
                }
                checks.expect(pushed == day.records as u64, || {
                    format!("{}: day {index} absorbed {pushed} of {}", tenant.name, day.records)
                });
                let (ack, finish_s) =
                    tracer.span("serve.finish", || client.finish_day(&tenant.name, index));
                out.finish_s += finish_s;
                if let Some(ack) = sent(&mut out, checks, "finish day", ack) {
                    checks.expect(ack.durable && !ack.report.duplicate, || {
                        format!("{}: day {index} finish ack is not a durable first", tenant.name)
                    });
                    if !ack.report.bootstrap {
                        out.day_close_ms.push(finish_s * 1e3);
                    }
                    if let Some(reference) = opts.reference {
                        checks.expect(
                            report_json(&ack.report) == reference.day_reports[t][d],
                            || format!("{}: day {index} differs from the library run", tenant.name),
                        );
                    }
                }
                // Reads ride beside writes on the same connection.
                let (page, alerts_s) =
                    tracer.span("serve.query", || client.alerts(&tenant.name, cursors[t]));
                if let Some(page) = sent(&mut out, checks, "alerts", page) {
                    cursors[t] = page.next_since;
                }
                let (report, report_s) =
                    tracer.span("serve.query", || client.report(&tenant.name, index));
                sent(&mut out, checks, "report", report);
                out.query_ms.push((alerts_s + report_s) * 1e3);
            }
        }
    });
    out.session_s = session_s;

    for tenant in &world.tenants {
        for case in &tenant.cases {
            let req = request_for(&case.probe, case.day.index());
            let (found, secs) =
                tracer.span("serve.investigate", || client.investigate(&tenant.name, &req));
            out.investigate_ms.push(secs * 1e3);
            if let Some(found) = sent(&mut out, checks, "investigate", found) {
                tally(
                    case,
                    &found.reported_names(),
                    &mut out.true_detections,
                    &mut out.false_detections,
                );
            }
        }
    }

    let snapshot = registry.snapshot();
    out.bytes_in = snapshot.counter_sum("serve_ingest_bytes_total", &[]);
    out.rejected = snapshot.counter_sum("serve_admission_rejections_total", &[]);
    out.finish_commit_s =
        snapshot.histogram_totals("serve_finish_commit_micros", &[]).sum as f64 / 1e6;
    if opts.registry {
        checks
            .expect(snapshot.counter_sum("serve_ingest_records_total", &[]) == out.records, || {
                "the daemon's registry did not count every pushed record".to_owned()
            });
    }

    let stopped = client.shutdown();
    if let Some(ack) = sent(&mut out, checks, "shutdown", stopped) {
        checks.expect(ack.open_days_dropped == 0, || "shutdown dropped open days".to_owned());
    }
    drop(client);
    handle.join();

    // Cold start: every acked day of every tenant restored and listening.
    let (server, cold_start_s) =
        tracer.span("serve.cold_start", || Server::bind(backend(), config()));
    out.cold_start_s = cold_start_s;
    match server {
        Ok(server) => {
            checks.expect(server.tenant_count() == world.tenants.len(), || {
                format!("cold start restored {} tenants", server.tenant_count())
            });
            if let Some(reference) = opts.reference {
                let mut client = ServeClient::new(server.addr());
                let handle = server.spawn();
                for (t, tenant) in world.tenants.iter().enumerate() {
                    let stored: Vec<&str> = reference.reports_json[t].lines().collect();
                    for (d, day) in tenant.days.iter().enumerate() {
                        let report = client.report(&tenant.name, day.day.index());
                        if let Some(report) = sent(&mut out, checks, "report after restart", report)
                        {
                            checks.expect(
                                stored.get(d) == Some(&report_json(&report).as_str()),
                                || {
                                    format!(
                                        "{}: day {} lost or changed by restart",
                                        tenant.name, day.day
                                    )
                                },
                            );
                        }
                    }
                }
                let stopped = client.shutdown();
                sent(&mut out, checks, "shutdown", stopped);
                drop(client);
                handle.join();
            }
        }
        Err(e) => checks.fail(format!("cold start: {e}")),
    }

    // Offline compaction of what the daemon left behind.
    let root = backend();
    for tenant in &world.tenants {
        let folded = root
            .scope(&tenant.name)
            .and_then(|scope| StoreDir::open_boxed(scope, LifecycleConfig::default()))
            .and_then(|dir| {
                let segments = dir.segment_count() as u64;
                out.segments += segments;
                checks.expect(segments == SEGMENTS_LEFT_PER_TENANT, || {
                    format!(
                        "{}: the daemon left {segments} segments, not {SEGMENTS_LEFT_PER_TENANT}: \
                         has the default compaction trigger changed?",
                        tenant.name
                    )
                });
                let store = Persistence::new(dir, SnapshotPolicy::default());
                let (report, secs) = tracer.span("store.compact", || store.compact());
                out.compact_s += secs;
                report
            });
        checks.expect(folded.is_ok(), || format!("{}: offline compact: {folded:?}", tenant.name));
    }
    let _ = std::fs::remove_dir_all(opts.root);
    out
}
