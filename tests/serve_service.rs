//! End-to-end service tests over real TCP: the daemon must be a
//! transparent, multi-tenant shell around the library engine.
//!
//! * **Equivalence** — the same LANL lines pushed through the HTTP ingest
//!   API produce bit-identical `DayReport` JSON and the same alert
//!   stream as the library streaming path, for several tenants ingesting
//!   concurrently, on every `ObjectStore` backend.
//! * **Durability + restore** — a graceful shutdown followed by a cold
//!   `Server::bind` over the same root store restores every tenant, its
//!   reports, and its alert cursor.
//! * **Typed wire errors** — each promised `{code, message}` envelope
//!   surfaces under its status over a real connection, including the
//!   `429` admission path with `Retry-After` and the `503` drain path.
//! * **Read-during-commit** — queries keep answering while a day's store
//!   commit is still writing (the persist-cursor lock never blocks the
//!   read path).

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{DayReport, IngestSource, MemBackend, ObjectStore};
use earlybird::logmodel::{format_dns_line, Day, DomainInterner, HostKind};
use earlybird::serve::{
    InvestigateRequest, ServeClient, Server, ServerConfig, TenantLimits, TenantSpec,
};
use earlybird::store::{ObjectInfo, ObjectUpload, StoreResult};
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use earlybird_engine::CollectedAlerts;
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::Backend;

/// The spec describing a generated dataset's metadata.
fn spec_for(meta: &earlybird::logmodel::DatasetMeta) -> TenantSpec {
    TenantSpec {
        n_hosts: meta.n_hosts,
        host_kinds: meta
            .host_kinds
            .iter()
            .map(|k| if *k == HostKind::Server { "server".into() } else { "workstation".into() })
            .collect(),
        internal_suffixes: meta.internal_suffixes.clone(),
        bootstrap_days: meta.bootstrap_days,
        total_days: meta.total_days,
        auto_investigate: true,
        soc_seeds: Vec::new(),
        retain_days: 0,
    }
}

/// Canonical JSON of a report with the wall-clock noise zeroed — the
/// bit-identity token for service-vs-library comparison.
fn report_json(report: &DayReport) -> String {
    let mut r = report.clone();
    r.stages.wall_micros = 0;
    serde_json::to_string(&r).expect("report serializes")
}

/// One HTTP exchange on a throwaway connection, returning status,
/// lower-cased headers, and body — for protocol-level assertions the
/// typed client hides.
fn raw_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: earlybird\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// The whole LANL challenge through the service, two tenants at once:
/// every finish ack is bit-identical JSON to the library report, the
/// alert streams match, investigations agree, and a graceful shutdown +
/// cold rebind restores both tenants — on every backend.
#[test]
fn service_matches_library_and_survives_restart() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let spec = spec_for(&challenge.dataset.meta);

    // Pre-render each day as the span texts every consumer will see.
    let day_spans: Vec<(u32, Vec<String>)> = challenge
        .dataset
        .days
        .iter()
        .map(|d| {
            let lines: Vec<String> =
                d.queries.iter().map(|q| format_dns_line(q, &challenge.dataset.domains)).collect();
            let chunk = lines.len().div_ceil(3).max(1);
            let spans = lines
                .chunks(chunk)
                .map(|c| {
                    let mut s = c.join("\n");
                    s.push('\n');
                    s
                })
                .collect();
            (d.day.index(), spans)
        })
        .collect();

    // Library reference over the exact same lines.
    let ref_alerts = CollectedAlerts::default();
    let mut ref_engine = spec
        .builder()
        .alert_log(ref_alerts.clone())
        .build(Arc::new(DomainInterner::new()), spec.dataset_meta().unwrap())
        .expect("valid spec");
    let mut ref_reports = Vec::new();
    for (day, spans) in &day_spans {
        let mut ingest = ref_engine.begin_day(Day::new(*day), IngestSource::Dns);
        for span in spans {
            ingest.push_lines(span);
        }
        ref_reports.push(ingest.finish());
    }
    let ref_alerts = ref_alerts.snapshot();
    assert!(!ref_alerts.is_empty(), "the challenge must produce alerts");

    for backend in Backend::matrix("serve-service") {
        let context = backend.name();
        let server = Server::bind(backend.boxed_store(), ServerConfig::default())
            .unwrap_or_else(|e| panic!("{context}: bind: {e}"));
        let addr = server.addr();
        let handle = server.spawn();

        // Two tenants ingest the same days concurrently; each must see
        // library-identical results in isolation.
        let day_spans = &day_spans;
        let ref_reports = &ref_reports;
        let ref_alert_slice = &ref_alerts[..];
        let spec_ref = &spec;
        std::thread::scope(|s| {
            for name in ["acme", "globex"] {
                s.spawn(move || {
                    let mut client = ServeClient::new(addr);
                    client.create_tenant(name, spec_ref).expect("create tenant");
                    for ((day, spans), reference) in day_spans.iter().zip(ref_reports) {
                        for span in spans {
                            let ack = client.push_span(name, *day, span).expect("push span");
                            assert!(!ack.duplicate, "{context}/{name}: day {day} not a dup");
                        }
                        let ack = client.finish_day(name, *day).expect("finish day");
                        assert!(ack.durable, "{context}/{name}: finish acks are durable");
                        assert_eq!(
                            report_json(&ack.report),
                            report_json(reference),
                            "{context}/{name}: day {day} report must be bit-identical JSON"
                        );
                    }
                    let page = client.alerts(name, 0).expect("alerts");
                    assert_eq!(
                        page.alerts, ref_alert_slice,
                        "{context}/{name}: service alert stream matches the library alert log"
                    );
                });
            }
        });

        let mut client = ServeClient::new(addr);

        // Alert cursor contract: half-open paging over the sequence.
        let all = client.alerts("acme", 0).unwrap();
        let last_seq = all.alerts.last().unwrap().sequence;
        assert_eq!(all.next_since, last_seq + 1);
        let mid_seq = all.alerts[all.alerts.len() / 2].sequence;
        let page = client.alerts("acme", mid_seq).unwrap();
        assert!(page.alerts.iter().all(|a| a.sequence >= mid_seq));
        assert_eq!(page.alerts.last().unwrap().sequence, last_seq);
        assert_eq!(page.next_since, last_seq + 1);
        let empty = client.alerts("acme", all.next_since).unwrap();
        assert!(empty.alerts.is_empty(), "{context}: cursor at the end reads nothing");
        assert_eq!(empty.next_since, all.next_since, "{context}: an empty read keeps the cursor");

        // Alert cursors persist with the engine: capture them before any
        // non-checkpointed activity (investigations emit, but only a
        // day's finish commits).
        let cursors: BTreeMap<String, u64> = client
            .tenants()
            .unwrap()
            .tenants
            .into_iter()
            .map(|t| (t.name, t.next_alert_sequence))
            .collect();
        assert_eq!(cursors.len(), 2, "{context}: both tenants registered");

        // Every hint mode answers over the wire; hinted campaign
        // investigations agree with the library.
        for campaign in &challenge.campaigns {
            let req = InvestigateRequest::hint_hosts(
                campaign.day.index(),
                campaign.hint_hosts.iter().map(|h| h.index()),
            );
            let over_wire = client.investigate("acme", &req).unwrap();
            let in_library = ref_engine
                .investigate(
                    campaign.day,
                    earlybird::engine::Investigation::from_hint_hosts(
                        campaign.hint_hosts.iter().copied(),
                    ),
                )
                .unwrap();
            assert_eq!(
                over_wire.outcome, in_library.outcome,
                "{context}: campaign day {:?} outcome",
                campaign.day
            );
        }
        let last_day = day_spans.last().unwrap().0;
        assert!(client.investigate("acme", &InvestigateRequest::no_hint(last_day)).is_ok());
        assert!(client
            .investigate("acme", &InvestigateRequest::seed_names(last_day, ["cc.alpha.c3"]))
            .is_ok());

        let reports_before = client.reports("acme").unwrap().reports;

        // Graceful shutdown, then a cold start over the same root store.
        let ack = client.shutdown().unwrap();
        assert_eq!(ack.open_days_dropped, 0, "{context}: every day was finished");
        drop(client);
        handle.join();

        let restarted = Server::bind(backend.boxed_store(), ServerConfig::default())
            .unwrap_or_else(|e| panic!("{context}: rebind: {e}"));
        assert_eq!(restarted.tenant_count(), 2, "{context}: cold start restores both tenants");
        let addr = restarted.addr();
        let handle = restarted.spawn();
        let mut client = ServeClient::new(addr);

        let restored = client.reports("acme").unwrap().reports;
        assert_eq!(restored.len(), reports_before.len(), "{context}: all acked days restored");
        for (a, b) in restored.iter().zip(&reports_before) {
            assert_eq!(a.day, b.day, "{context}: restored day order");
            assert_eq!(a.bootstrap, b.bootstrap, "{context}: restored bootstrap flag");
            assert!(
                a.stages.deterministic_eq(&b.stages),
                "{context}: restored counters for {:?}",
                a.day
            );
            assert_eq!(a.dns_counts, b.dns_counts, "{context}: restored dns counts");
        }

        // The alert log restarts empty, but the cursor space does not
        // regress: the next sequence resumes from the persisted engine.
        let after = client.tenants().unwrap();
        for t in &after.tenants {
            assert_eq!(
                Some(&t.next_alert_sequence),
                cursors.get(&t.name),
                "{context}/{}: alert cursor is monotone across restart",
                t.name
            );
        }
        let fresh = client.alerts("acme", 0).unwrap();
        assert!(fresh.alerts.is_empty(), "{context}: restored log holds no replayed alerts");
        assert_eq!(fresh.next_since, 0);

        // Re-finishing an already-durable day replays its stored
        // counters without a new commit.
        let dup = client.finish_day("globex", last_day).unwrap();
        assert!(dup.report.duplicate && dup.durable, "{context}: replay is a durable no-op");
        assert!(
            dup.report.stages.deterministic_eq(&ref_reports.last().unwrap().stages),
            "{context}: replayed counters match the original day"
        );

        client.shutdown().unwrap();
        drop(client);
        handle.join();
        backend.cleanup();
    }
}

/// Every promised error envelope surfaces typed over a real connection.
#[test]
fn wire_errors_surface_typed_over_http() {
    let server = Server::bind(Box::new(MemBackend::new()), ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();
    let mut client = ServeClient::new(addr);

    let spec = TenantSpec::lanl(4, 0, 8);
    client.create_tenant("t1", &spec).unwrap();

    // 404 unknown_tenant / unknown_day, and 404 not_found for no route.
    let err = client.reports("ghost").unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (404, "unknown_tenant"));
    let err = client.report("t1", 9999).unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (404, "unknown_day"));
    let (status, _, body) = raw_request(addr, "GET", "/v2/espresso", b"");
    assert_eq!(status, 404);
    assert!(body.contains("\"not_found\""), "body was {body}");

    // 400 bad_request: malformed day segment, malformed spec JSON, bad
    // investigation mode.
    let (status, _, body) = raw_request(addr, "GET", "/v1/t1/days/3x/report", b"");
    assert_eq!(status, 400);
    assert!(body.contains("\"bad_request\""), "body was {body}");
    let (status, _, body) = raw_request(addr, "PUT", "/v1/t2", b"{not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"bad_request\""), "body was {body}");
    let mut bad_mode = InvestigateRequest::no_hint(0);
    bad_mode.mode = "tarot".into();
    let err = client.investigate("t1", &bad_mode).unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (400, "bad_request"));

    // 405 method_not_allowed on a known route shape.
    let (status, _, body) = raw_request(addr, "DELETE", "/v1/tenants", b"");
    assert_eq!(status, 405);
    assert!(body.contains("\"method_not_allowed\""), "body was {body}");

    // 409 tenant_exists on a duplicate PUT.
    let err = client.create_tenant("t1", &spec).unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (409, "tenant_exists"));

    // 409 stale_day: a never-ingested day behind the newest report.
    client.push_span("t1", 2, "").unwrap();
    let ack = client.finish_day("t1", 2).unwrap();
    assert!(ack.durable);
    let err = client.push_span("t1", 1, "x\n").unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (409, "stale_day"));
    let err = client.finish_day("t1", 0).unwrap_err();
    assert_eq!(err.as_api().expect("typed").code, "stale_day");

    // Replays of the ingested day stay open to duplicate-tolerant reads.
    let ack = client.push_span("t1", 2, "whatever\n").unwrap();
    assert!(ack.duplicate);
    assert_eq!(ack.records_pushed, 0, "duplicate spans are no-ops");

    client.shutdown().unwrap();
    drop(client);
    handle.join();
}

/// Admission control answers `429 over_capacity` with `Retry-After`
/// before any engine work happens, and recovers once the day is sealed.
#[test]
fn admission_control_rejects_over_capacity_spans() {
    let cfg = ServerConfig {
        limits: TenantLimits { max_inflight_spans: 64, max_open_bytes: 64 },
        ..ServerConfig::default()
    };
    let server = Server::bind(Box::new(MemBackend::new()), cfg).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();
    let mut client = ServeClient::new(addr);
    client.create_tenant("t1", &TenantSpec::lanl(4, 0, 4)).unwrap();

    // A single span over the byte ceiling: refused with Retry-After.
    let big = "x".repeat(80);
    let (status, headers, body) = raw_request(addr, "POST", "/v1/t1/days/0/spans", big.as_bytes());
    assert_eq!(status, 429);
    assert!(body.contains("\"over_capacity\""), "body was {body}");
    assert!(
        headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
        "429 must carry Retry-After, got {headers:?}"
    );

    // Under the ceiling passes; the next span would cross it and is
    // refused; sealing the day releases the buffered bytes.
    let half = "y".repeat(40);
    client.push_span("t1", 0, &half).unwrap();
    let err = client.push_span("t1", 0, &half).unwrap_err();
    assert_eq!(err.as_api().expect("typed").code, "over_capacity");
    client.finish_day("t1", 0).unwrap();
    client.push_span("t1", 1, &half).unwrap();
    client.finish_day("t1", 1).unwrap();

    client.shutdown().unwrap();
    drop(client);
    handle.join();
}

/// After the drain began, live keep-alive connections get `503 draining`
/// for new work instead of a hang or a reset.
#[test]
fn draining_daemon_refuses_new_work_with_503() {
    let server = Server::bind(Box::new(MemBackend::new()), ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let mut ingester = ServeClient::new(addr);
    ingester.create_tenant("t1", &TenantSpec::lanl(4, 0, 4)).unwrap();
    ingester.push_span("t1", 0, "span one\n").unwrap(); // pool the connection

    let mut admin = ServeClient::new(addr);
    let ack = admin.shutdown().unwrap();
    assert_eq!(ack.open_days_dropped, 1, "the unfinished day is dropped, not persisted");

    // The ingester's pooled connection is still served — but only with
    // refusals for mutating work.
    let err = ingester.push_span("t1", 0, "span two\n").unwrap_err();
    let api = err.as_api().expect("typed envelope");
    assert_eq!((api.status, api.code.as_str()), (503, "draining"));
    let err = ingester.create_tenant("t2", &TenantSpec::lanl(4, 0, 4)).unwrap_err();
    assert_eq!(err.as_api().expect("typed").code, "draining");
    let err = admin.shutdown().unwrap_err();
    assert_eq!(err.as_api().expect("typed").code, "draining", "a second drain is refused");

    drop(ingester);
    drop(admin);
    handle.join();
}

/// A backend whose manifest swap (the commit point) can be slowed down on
/// demand, to hold a day's store commit open while queries run.
#[derive(Debug)]
struct SlowStore {
    inner: Box<dyn ObjectStore>,
    armed: Arc<AtomicBool>,
    committing: Arc<AtomicBool>,
    delay: Duration,
}

impl ObjectStore for SlowStore {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn put_atomic(&self, name: &str) -> StoreResult<Box<dyn ObjectUpload>> {
        self.inner.put_atomic(name)
    }

    fn get(&self, name: &str) -> StoreResult<Box<dyn std::io::Read + Send>> {
        self.inner.get(name)
    }

    fn list(&self) -> StoreResult<Vec<ObjectInfo>> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        self.inner.delete(name)
    }

    fn quarantine(&self, name: &str) -> StoreResult<String> {
        self.inner.quarantine(name)
    }

    fn read_manifest(&self) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read_manifest()
    }

    fn swap_manifest(&self, expected: Option<u64>, next: u64, bytes: &[u8]) -> StoreResult<()> {
        if self.armed.load(Ordering::SeqCst) {
            self.committing.store(true, Ordering::SeqCst);
            std::thread::sleep(self.delay);
        }
        let result = self.inner.swap_manifest(expected, next, bytes);
        self.committing.store(false, Ordering::SeqCst);
        result
    }

    fn scope(&self, name: &str) -> StoreResult<Box<dyn ObjectStore>> {
        Ok(Box::new(SlowStore {
            inner: self.inner.scope(name)?,
            armed: Arc::clone(&self.armed),
            committing: Arc::clone(&self.committing),
            delay: self.delay,
        }))
    }

    fn scopes(&self) -> StoreResult<Vec<String>> {
        self.inner.scopes()
    }
}

/// Queries must not wait for a day's store commit: with the commit point
/// held open for half a second, reports and alerts still answer in
/// milliseconds — the regression test for the persist-cursor lock that
/// used to pin the whole engine behind `&mut` during checkpoints.
#[test]
fn queries_flow_while_a_day_commit_is_writing() {
    let armed = Arc::new(AtomicBool::new(false));
    let committing = Arc::new(AtomicBool::new(false));
    let delay = Duration::from_millis(500);
    let root = SlowStore {
        inner: Box::new(MemBackend::new()),
        armed: Arc::clone(&armed),
        committing: Arc::clone(&committing),
        delay,
    };
    let server = Server::bind(Box::new(root), ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let mut client = ServeClient::new(addr);
    client.create_tenant("t1", &TenantSpec::lanl(8, 1, 4)).unwrap();
    let lines: String = (0..64)
        .map(|i| format!("{}\t10.0.0.{}\td{}.example.c3\tA\t50.1.1.1\n", i * 60, i % 8, i % 5))
        .collect();
    client.push_span("t1", 0, &lines).unwrap();

    // Seal the day on a side thread with the commit point slowed down.
    armed.store(true, Ordering::SeqCst);
    let finish_done = Arc::new(AtomicBool::new(false));
    let finisher = std::thread::spawn({
        let finish_done = Arc::clone(&finish_done);
        move || {
            let mut c = ServeClient::new(addr);
            let ack = c.finish_day("t1", 0).expect("finish");
            finish_done.store(true, Ordering::SeqCst);
            ack
        }
    });
    let commit_wait = Instant::now();
    while !committing.load(Ordering::SeqCst) {
        assert!(commit_wait.elapsed() < Duration::from_secs(10), "commit never started");
        assert!(!finish_done.load(Ordering::SeqCst), "finish outran the slow commit");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The commit is now mid-write: every read path must still answer.
    let start = Instant::now();
    let reports = client.reports("t1").unwrap();
    assert_eq!(reports.reports.len(), 1, "the sealed day's report is already readable");
    client.alerts("t1", 0).unwrap();
    client.tenants().unwrap();
    let elapsed = start.elapsed();
    assert!(
        !finish_done.load(Ordering::SeqCst),
        "queries must complete while the commit is still writing"
    );
    assert!(
        elapsed < delay / 2,
        "queries took {elapsed:?} against a {delay:?} commit — they were serialized behind it"
    );

    let ack = finisher.join().expect("finisher thread");
    assert!(ack.durable);
    armed.store(false, Ordering::SeqCst);

    client.shutdown().unwrap();
    drop(client);
    handle.join();
}
