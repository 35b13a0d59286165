//! Service-level observability: a full ingest → finish → query cycle
//! against a live daemon must move every advertised counter family —
//! per-tenant ingest totals, parse errors, admission rejections, the
//! finish-commit histogram, engine stage timings, and store commit
//! series — and `GET /metrics` must expose them in Prometheus text with
//! values that match the work actually performed. Runs as the
//! `{localfs, mem}` backend matrix, and cross-checks that the
//! instrumented service produces reports bit-identical to an
//! uninstrumented library engine.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{EngineBuilder, IngestSource, MemBackend, MetricsRegistry};
use earlybird::logmodel::{
    format_dns_line, Day, DnsQuery, DnsRecordType, DomainInterner, HostId, Ipv4, Timestamp,
};
use earlybird::serve::{ServeClient, Server, ServerConfig, TenantLimits, TenantSpec};
use earlybird::synthgen::ac::{AcConfig, AcGenerator};
use std::sync::Arc;
use support::Backend;

const N_HOSTS: u32 = 6;
const N_DAYS: u32 = 3;

fn spec() -> TenantSpec {
    let mut spec = TenantSpec::lanl(N_HOSTS, 1, N_DAYS);
    spec.auto_investigate = true;
    spec
}

/// A small deterministic day: background chatter plus a beaconing host.
fn day_text(day: u32, domains: &Arc<DomainInterner>) -> String {
    let mut queries = Vec::new();
    for i in 0..90u32 {
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

/// The value of one fully-labeled series in a Prometheus text exposition.
fn series(text: &str, name_and_labels: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.strip_prefix(name_and_labels).is_some_and(|rest| rest.starts_with(' ')))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn service_cycle_moves_every_counter_family() {
    let domains = Arc::new(DomainInterner::new());
    // One corrupt line per day moves the parse-error counters on both
    // the serve and engine layers — in the reference run too, so the
    // reports stay comparable.
    let days: Vec<(u32, String)> = (0..N_DAYS)
        .map(|d| (d, format!("{}this line is corrupt\n", day_text(d, &domains))))
        .collect();

    // Uninstrumented library reference: a disabled registry records no
    // wall time at all, so agreement here proves instrumentation is pure
    // side-band.
    let ref_raw = Arc::new(DomainInterner::new());
    let mut reference = spec()
        .builder()
        .metrics(Arc::new(MetricsRegistry::disabled()))
        .build(Arc::clone(&ref_raw), spec().dataset_meta().unwrap())
        .expect("valid spec");
    let mut ref_reports = Vec::new();
    for (day, text) in &days {
        let mut ingest = reference.begin_day(Day::new(*day), IngestSource::Dns);
        ingest.push_lines(text);
        ref_reports.push(ingest.finish());
    }

    for backend in Backend::matrix("serve-obs") {
        let context = backend.name();
        let cfg = ServerConfig {
            // A ceiling small enough to refuse one deliberately oversized
            // span, large enough for the real days.
            limits: TenantLimits { max_inflight_spans: 8, max_open_bytes: 256 << 10 },
            ..ServerConfig::default()
        };
        let registry = Arc::clone(&cfg.metrics);
        let server =
            Server::bind(backend.boxed_store(), cfg).unwrap_or_else(|e| panic!("{context}: {e}"));
        let addr = server.addr();
        let handle = server.spawn();
        let mut client = ServeClient::new(addr);
        client.create_tenant("acme", &spec()).expect("create tenant");

        let mut records_pushed = 0u64;
        let mut commits_before = 0.0;
        for (day, text) in &days {
            let scrape = client.metrics().expect("scrape");
            let commits = series(
                &scrape,
                &format!("store_commit_micros_count{{backend=\"{context}\",tenant=\"acme\"}}"),
            )
            .unwrap_or_else(|| panic!("{context}: store commit series missing:\n{scrape}"));
            assert!(commits >= commits_before, "{context}: commit count is monotone");
            commits_before = commits;

            let ack = client.push_span("acme", *day, text).expect("push span");
            assert_eq!(ack.span_parse_errors, 1, "{context}: the corrupt line fails");
            records_pushed += ack.records_pushed;
            let report = client.finish_day("acme", *day).expect("finish day").report;
            assert!(
                report.stages.deterministic_eq(&ref_reports[*day as usize].stages),
                "{context}: day {day} differs from the uninstrumented library run"
            );
        }

        // An oversized span is refused by admission control (429) and
        // counted, not absorbed.
        let oversized = "x".repeat((256 << 10) + 1);
        let err = client.push_span("acme", N_DAYS - 1, &oversized).unwrap_err();
        assert_eq!(err.as_api().map(|e| e.code.as_str()), Some("over_capacity"), "{context}");

        let text = client.metrics().expect("scrape after cycle");
        let get = |s: &str| {
            series(&text, s).unwrap_or_else(|| panic!("{context}: series {s} missing:\n{text}"))
        };
        assert_eq!(get("serve_ingest_records_total{tenant=\"acme\"}"), records_pushed as f64);
        assert!(get("serve_ingest_bytes_total{tenant=\"acme\"}") > 0.0, "{context}");
        assert_eq!(get("serve_span_parse_errors_total{tenant=\"acme\"}"), f64::from(N_DAYS));
        assert_eq!(get("serve_admission_rejections_total{tenant=\"acme\"}"), 1.0);
        assert_eq!(get("serve_finish_commit_micros_count{tenant=\"acme\"}"), f64::from(N_DAYS));
        assert_eq!(get("serve_inflight_spans{tenant=\"acme\"}"), 0.0);
        assert_eq!(get("serve_open_bytes{tenant=\"acme\"}"), 0.0);
        // The scrape request itself is the one in flight.
        assert_eq!(get("serve_requests_inflight"), 1.0);
        assert_eq!(get("serve_connections_active"), 1.0);
        // Engine stages ran under the tenant's label...
        let stage = |family: &str, stage: &str| {
            get(&format!("engine_stage_micros_{family}{{stage=\"{stage}\",tenant=\"acme\"}}"))
        };
        for name in [
            "parse",
            "reduce",
            "reduce_names",
            "reduce_chunk",
            "reduce_absorb",
            "profile",
            "checkpoint",
        ] {
            let count = stage("count", name);
            assert!(count >= f64::from(N_DAYS), "{context}: stage {name} ran each day: {count}");
        }
        // ...the reduce breakdown never exceeds the stage it breaks down,
        // and a DNS-only tenant normalizes nothing.
        let parts: f64 =
            ["reduce_names", "reduce_chunk", "reduce_absorb"].iter().map(|n| stage("sum", n)).sum();
        assert!(parts <= stage("sum", "reduce"), "{context}: {parts} within the reduce stage");
        assert_eq!(stage("count", "reduce_normalize"), 0.0, "{context}: DNS only");
        assert_eq!(get("engine_records_total{tenant=\"acme\"}"), records_pushed as f64);
        assert_eq!(get("engine_parse_errors_total{tenant=\"acme\"}"), f64::from(N_DAYS));
        // The data-shape series say how big each string table is: the
        // daemon's engine interned the same lines the reference did.
        let table = |family: &str, table: &str| {
            get(&format!("engine_interner_{family}{{table=\"{table}\",tenant=\"acme\"}}"))
        };
        assert_eq!(table("symbols", "raw"), ref_raw.len() as f64, "{context}");
        assert_eq!(table("symbols", "folded"), reference.folded().len() as f64, "{context}");
        let name_bytes: usize = ref_raw.tail(0).iter().map(str::len).sum();
        assert!(table("bytes", "raw") > name_bytes as f64, "{context}: names, offsets, index");
        assert_eq!(table("symbols", "ua") + table("symbols", "path"), 0.0, "{context}: DNS only");
        // ...and the store series carry the backend label. Tenant
        // creation commits the registration snapshot, then one commit
        // per finished day.
        let commits =
            get(&format!("store_commit_micros_count{{backend=\"{context}\",tenant=\"acme\"}}"));
        assert!(
            commits >= f64::from(N_DAYS) + 1.0,
            "{context}: at least the registration snapshot plus one commit per day: {commits}"
        );
        assert!(
            get(&format!("store_commit_bytes_total{{backend=\"{context}\",tenant=\"acme\"}}"))
                > 0.0,
            "{context}"
        );
        assert_eq!(
            get(&format!("store_gc_failures_total{{backend=\"{context}\",tenant=\"acme\"}}")),
            0.0
        );

        // The exposition is well-formed: one TYPE line per metric name.
        let mut type_names: Vec<&str> =
            text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
        let before = type_names.len();
        type_names.dedup_by(|a, b| a.split(' ').next() == b.split(' ').next());
        assert_eq!(type_names.len(), before, "{context}: duplicate TYPE lines");

        // The enriched tenant listing carries the same health counters
        // without a scrape.
        let tenants = client.tenants().expect("list tenants").tenants;
        assert_eq!(tenants.len(), 1, "{context}");
        assert_eq!(tenants[0].span_parse_errors, u64::from(N_DAYS), "{context}");
        assert_eq!(tenants[0].gc_failures, 0, "{context}");

        // The registry handle sees the same cells the daemon writes.
        let snap = registry.snapshot();
        let records = snap
            .samples
            .iter()
            .find(|s| s.name == "serve_ingest_records_total")
            .expect("sample present");
        assert_eq!(records.labels, vec![("tenant".to_string(), "acme".to_string())]);

        client.shutdown().expect("graceful shutdown");
        drop(client);
        handle.join();
        backend.cleanup();
    }
}

/// `GET /v1/admin/slow-ops` drains the slow-operation ring with
/// exactly-once delivery: flooring the threshold makes every instrumented
/// span a slow op, one poll returns them all (well-formed: named op,
/// recorded threshold), and the next poll returns an empty page. The ring
/// lives on the registry, not a backend, so one in-memory store suffices.
#[test]
fn slow_ops_endpoint_drains_exactly_once() {
    let domains = Arc::new(DomainInterner::new());
    let cfg = ServerConfig::default();
    cfg.metrics.set_slow_op_threshold_micros(0);
    let server = Server::bind(Box::new(MemBackend::new()), cfg).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();
    let mut client = ServeClient::new(addr);
    client.create_tenant("acme", &spec()).expect("create tenant");
    let text = day_text(0, &domains);
    client.push_span("acme", 0, &text).expect("push span");
    client.finish_day("acme", 0).expect("finish day");

    let page = client.slow_ops().expect("slow-ops page");
    assert!(!page.slow_ops.is_empty(), "a zero threshold makes every span a slow op");
    for op in &page.slow_ops {
        assert!(!op.op.is_empty(), "op is named: {op:?}");
        assert_eq!(op.threshold_micros, 0, "the floored threshold travels with the record");
    }
    assert!(
        page.slow_ops.iter().any(|op| op.op.contains("tenant=acme")),
        "tenant-labeled engine/store spans appear in the ring: {:?}",
        page.slow_ops
    );

    let drained = client.slow_ops().expect("second poll");
    assert!(drained.slow_ops.is_empty(), "each record is delivered exactly once");

    client.shutdown().expect("graceful shutdown");
    drop(client);
    handle.join();
}

/// The reduce stage's breakdown covers a proxy push: name admission and
/// fold warm-up, normalization, the parallel chunk pass and the in-order
/// absorb each observe, and together they stay within `stage="reduce"`.
#[test]
fn reduce_stages_break_down_a_proxy_push() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let registry = Arc::new(MetricsRegistry::new());
    let mut engine = EngineBuilder::enterprise()
        .parallelism(2)
        .parallel_threshold(1)
        .ingest_chunk_records(64)
        .metrics(Arc::clone(&registry))
        .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
        .expect("valid config");
    let day = &world.dataset.days[0];
    let mut ingest = engine.begin_day(day.day, IngestSource::Proxy { dhcp: &world.dataset.dhcp });
    ingest.push_proxy_records(&day.records);
    ingest.finish();

    let snap = registry.snapshot();
    let totals = |name: &str| snap.histogram_totals("engine_stage_micros", &[("stage", name)]);
    assert_eq!(totals("reduce").count, 1, "one push");
    assert_eq!(totals("reduce_names").count, 2, "admission, then the warm-up");
    for name in ["reduce_normalize", "reduce_chunk", "reduce_absorb"] {
        assert_eq!(totals(name).count, 1, "stage {name} observed once per push");
    }
    let parts: u64 = ["reduce_names", "reduce_normalize", "reduce_chunk", "reduce_absorb"]
        .iter()
        .map(|name| totals(name).sum)
        .sum();
    assert!(parts <= totals("reduce").sum, "{parts} µs within the reduce stage");
}
