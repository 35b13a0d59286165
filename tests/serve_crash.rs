//! Crash-restart durability of the service, end-to-end over HTTP: a
//! [`FaultInjector`] kills the daemon's store at **every** backend
//! mutation point of the serving schedule — the tenant-registration
//! snapshot, every day-finish commit, compaction — and a cold
//! `Server::bind` over the surviving state must then uphold the ack
//! contract:
//!
//! * every day whose finish returned `200` is present after restart,
//!   with counters identical to the library run;
//! * no day appears that ingestion never attempted to seal;
//! * a tenant whose registration snapshot never committed is cleanly
//!   absent (its creation was never acked).
//!
//! The sweep enumerates crash points from 0 upward until a run completes
//! with no fault fired, so every mutation in the schedule is killed
//! exactly once, per backend.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{
    FaultInjector, FaultedStore, IngestSource, LifecycleConfig, MemBackend, ObjectStore,
    Persistence, SnapshotPolicy, StoreDir,
};
use earlybird::logmodel::{
    format_dns_line, Day, DnsQuery, DnsRecordType, DomainInterner, HostId, Ipv4, Timestamp,
};
use earlybird::serve::{ServeClient, Server, ServerConfig, TenantSpec};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use support::Backend;

const N_HOSTS: u32 = 6;
const N_DAYS: u32 = 4;

fn spec() -> TenantSpec {
    let mut spec = TenantSpec::lanl(N_HOSTS, 1, N_DAYS);
    spec.auto_investigate = true;
    spec
}

/// A small deterministic day: background chatter plus a beaconing host,
/// rendered to interchange lines.
fn day_text(day: u32, domains: &Arc<DomainInterner>) -> String {
    let mut queries = Vec::new();
    for i in 0..120u32 {
        queries.push(DnsQuery {
            ts: Timestamp::from_secs(u64::from(i) * 613 % 86_400),
            src: HostId::new(i % N_HOSTS),
            src_ip: Ipv4::new(10, 0, 0, (i % N_HOSTS) as u8),
            qname: domains.intern(&format!("d{}.example.c3", (i * 7 + day) % 17)),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(50, (i % 17) as u8, 1, 1)),
        });
    }
    for beat in 0..16u64 {
        queries.push(DnsQuery {
            ts: Timestamp::from_secs(1_000 + beat * 600),
            src: HostId::new(1),
            src_ip: Ipv4::new(10, 0, 0, 1),
            qname: domains.intern("cc.alpha.c3"),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(198, 51, 100, 9)),
        });
    }
    queries.sort_by_key(|q| q.ts);
    let mut text = String::new();
    for q in &queries {
        text.push_str(&format_dns_line(q, domains));
        text.push('\n');
    }
    text
}

/// Kill the store at every mutation point of the service schedule; after
/// each crash, restart over the surviving state and check the ack
/// contract — `{localfs, mem}`.
#[test]
fn every_crash_point_preserves_acked_days_over_http() {
    let domains = Arc::new(DomainInterner::new());
    let days: Vec<(u32, String)> = (0..N_DAYS).map(|d| (d, day_text(d, &domains))).collect();

    // Library reference: the per-day reports an unfailing run produces.
    let mut reference = spec()
        .builder()
        .build(Arc::new(DomainInterner::new()), spec().dataset_meta().unwrap())
        .expect("valid spec");
    let mut ref_reports = Vec::new();
    for (day, text) in &days {
        let mut ingest = reference.begin_day(Day::new(*day), IngestSource::Dns);
        ingest.push_lines(text);
        ref_reports.push(ingest.finish());
    }

    for backend in Backend::matrix("serve-crash") {
        let context = backend.name();
        let mut saw_clean_run = false;
        for crash_at in 0..600u64 {
            let state = backend.fresh();
            let injector = FaultInjector::new();
            injector.arm(crash_at);
            let faulted = Box::new(FaultedStore::boxed(state.boxed_store(), injector.clone()));
            // Bind on a fresh (empty) store never mutates, so the doomed
            // daemon always comes up.
            let server = Server::bind(faulted, ServerConfig::default())
                .unwrap_or_else(|e| panic!("{context}/{crash_at}: bind: {e}"));
            let addr = server.addr();
            let mut handle = Some(server.spawn());

            // Drive until the injected crash surfaces as a 500. Only the
            // finish acks promise durability.
            let mut client = ServeClient::new(addr);
            let mut acked = BTreeSet::new();
            let mut attempted = BTreeSet::new();
            if client.create_tenant("acme", &spec()).is_ok() {
                for (day, text) in &days {
                    if client.push_span("acme", *day, text).is_err() {
                        break;
                    }
                    attempted.insert(*day);
                    // A client retries a failed finish once: the retry
                    // must not ack a day the failed commit never stored.
                    let finished = client
                        .finish_day("acme", *day)
                        .or_else(|_| client.finish_day("acme", *day));
                    match finished {
                        Ok(ack) => {
                            assert!(ack.durable, "{context}/{crash_at}: 200 finish is durable");
                            acked.insert(*day);
                        }
                        Err(_) => break,
                    }
                }
            }
            drop(client);
            let crashed = injector.crashed();
            if crashed {
                // The daemon's store is dead mid-flight; abandon it like
                // a killed process (graceful drain is impossible by
                // construction) and recover from the medium alone.
                handle.take();
            }

            // Cold restart over the surviving state, unfaulted.
            let restarted = Server::bind(state.boxed_store(), ServerConfig::default())
                .unwrap_or_else(|e| panic!("{context}/{crash_at}: recovery bind: {e}"));
            match restarted.tenant_count() {
                0 => assert!(
                    acked.is_empty(),
                    "{context}/{crash_at}: acked days {acked:?} lost with the tenant"
                ),
                1 => {
                    let addr = restarted.addr();
                    let h2 = restarted.spawn();
                    let mut c2 = ServeClient::new(addr);
                    let restored = c2.reports("acme").expect("restored tenant answers").reports;
                    let have: BTreeSet<u32> = restored.iter().map(|r| r.day.index()).collect();
                    for day in &acked {
                        assert!(
                            have.contains(day),
                            "{context}/{crash_at}: acked day {day} lost (restored: {have:?})"
                        );
                    }
                    for day in &have {
                        assert!(
                            attempted.contains(day),
                            "{context}/{crash_at}: day {day} appeared without a finish attempt"
                        );
                    }
                    for report in &restored {
                        let reference = &ref_reports[report.day.index() as usize];
                        assert_eq!(report.bootstrap, reference.bootstrap);
                        assert!(
                            report.stages.deterministic_eq(&reference.stages),
                            "{context}/{crash_at}: restored counters for {:?}",
                            report.day
                        );
                        assert_eq!(report.dns_counts, reference.dns_counts);
                    }
                    c2.shutdown().expect("recovered daemon shuts down");
                    drop(c2);
                    h2.join();
                }
                n => panic!("{context}/{crash_at}: {n} tenants restored"),
            }

            if !crashed {
                // Nothing fired: the whole schedule ran clean, so every
                // mutation point before `crash_at` has been exercised.
                assert_eq!(
                    acked,
                    (0..N_DAYS).collect::<BTreeSet<u32>>(),
                    "{context}: the clean run acks every day"
                );
                // The un-crashed daemon is still serving; retire it.
                let mut c = ServeClient::new(addr);
                c.shutdown().expect("clean daemon shuts down");
                drop(c);
                handle.take().expect("uncrashed daemon still owned").join();
                saw_clean_run = true;
                state.cleanup();
                break;
            }
            state.cleanup();
        }
        assert!(saw_clean_run, "{context}: sweep never reached a fault-free run");
        backend.cleanup();
    }
}

/// A finish whose detection panics answers `500` and leaves the tenant as
/// it was: the open day is dropped and its bytes leave the open-bytes
/// budget, a retried finish answers `404`, the spans can be pushed again,
/// and nothing of the day reaches the store. A graceful shutdown still
/// completes: a failed request must not leak the in-flight count that
/// shutdown waits on.
#[test]
fn a_panicking_request_does_not_wedge_shutdown() {
    use earlybird::core::CcModel;
    use earlybird::features::{FeatureScaler, LinearRegression, RegressionModel};

    // A stored C&C model that expects 3 features (the extractor produces
    // 6) panics while the finish scores the day's rare domains.
    let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0, (i % 2) as f64]).collect();
    let fit = LinearRegression::fit_ridge(&xs, &[0.0; 8], 1e-3).unwrap();
    let model = RegressionModel::new(&["a", "b", "c"], fit, 0.5);
    let spec = TenantSpec::lanl(N_HOSTS, 0, N_DAYS);
    let engine = spec
        .builder()
        .cc_model(CcModel::Regression { model, scaler: FeatureScaler::identity(3) })
        .build(Arc::new(DomainInterner::new()), spec.dataset_meta().unwrap())
        .expect("valid config");
    let root = MemBackend::new();
    let scope = root.scope("acme").expect("scope");
    let dir = StoreDir::create_boxed(scope, LifecycleConfig::default()).expect("create store");
    Persistence::new(dir, SnapshotPolicy::default())
        .commit(&engine)
        .and_then(|handle| handle.wait())
        .expect("tenant committed");

    let handle =
        Server::bind(Box::new(root.clone()), ServerConfig::default()).expect("bind").spawn();
    let addr = handle.addr();
    let mut client = ServeClient::new(addr);
    let text = day_text(0, &Arc::new(DomainInterner::new()));
    client.push_span("acme", 0, &text).expect("push");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let finished = client.finish_day("acme", 0);
    std::panic::set_hook(hook);
    let status = finished.err().and_then(|e| e.as_api().map(|e| e.status));
    assert_eq!(status, Some(500), "the panicking finish answers 500");

    let scrape = client.metrics().expect("scrape");
    let open_bytes =
        scrape.lines().find_map(|l| l.strip_prefix("serve_open_bytes{tenant=\"acme\"} "));
    assert_eq!(open_bytes, Some("0"), "the dropped day's bytes are released");
    let retry = client.finish_day("acme", 0).err();
    let retry = retry.as_ref().and_then(|e| e.as_api()).map(|e| (e.status, e.code.as_str()));
    assert_eq!(retry, Some((404, "unknown_day")), "the failed finish dropped the open day");
    let ack = client.push_span("acme", 0, &text).expect("re-push accepted");
    assert!(!ack.duplicate, "the re-push starts the day afresh");

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ServeClient::new(addr).shutdown().map(|_| ()).map_err(|e| e.to_string()));
    });
    let shutdown = rx.recv_timeout(Duration::from_secs(20)).expect("shutdown returns within 20 s");
    shutdown.expect("shutdown succeeds");
    drop(client);
    handle.join();

    let handle = Server::bind(Box::new(root), ServerConfig::default()).expect("rebind").spawn();
    let mut client = ServeClient::new(handle.addr());
    let report = client.report("acme", 0).err();
    let status = report.as_ref().and_then(|e| e.as_api()).map(|e| e.status);
    assert_eq!(status, Some(404), "no report of the failed day after a restart");
    client.shutdown().expect("shutdown succeeds");
    drop(client);
    handle.join();
}
