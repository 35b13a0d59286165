//! Streaming ingestion: feed a day of raw tab-separated log lines into the
//! engine chunk by chunk through [`Engine::begin_day`], without ever
//! materializing the day as parsed records.
//!
//! This is the shape of a production tailer: read a block of lines from the
//! collector, `push_lines` it (parsing + reduction fan out across the
//! engine's worker pool; bad lines are tallied, not fatal), and call
//! `finish` at day rollover to run detection and drain alerts. The same
//! handle also accepts pre-parsed records (`push_dns_records`), and
//! `ingest_day` is just this path with a single push.
//!
//! Run with: `cargo run --release --example streaming_ingest`

use earlybird::engine::{CollectedAlerts, EngineBuilder, IngestSource};
use earlybird::logmodel::{
    format_dns_line, DatasetMeta, Day, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind,
    Ipv4, Timestamp,
};
use std::sync::Arc;

fn main() {
    // Simulate the raw feed: a day of interchange-format DNS lines in which
    // two workstations beacon to a C&C domain every 10 minutes. In a real
    // deployment these blocks would come off a file or socket tail.
    let feed = Arc::new(DomainInterner::new());
    let mut queries = Vec::new();
    let mut push = |ts: u64, host: u32, name: &str, ip: [u8; 4]| {
        queries.push(DnsQuery {
            ts: Timestamp::from_secs(ts),
            src: HostId::new(host),
            src_ip: Ipv4::new(10, 0, 0, host as u8),
            qname: feed.intern(name),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(ip[0], ip[1], ip[2], ip[3])),
        });
    };
    for victim in [1u32, 2] {
        let infected_at = 36_000 + victim as u64 * 45;
        push(infected_at, victim, "dropper.example-bad.com", [191, 146, 166, 40]);
        for beat in 0..30 {
            push(infected_at + 90 + beat * 600, victim, "cc.example-bad.com", [191, 146, 166, 145]);
        }
    }
    for t in 0..40 {
        push(30_000 + t * 977, 7, "totally-fine.net", [8, 8, 8, 8]);
    }
    queries.sort_by_key(|q| q.ts);
    let lines: Vec<String> = queries.iter().map(|q| format_dns_line(q, &feed)).collect();

    // The engine parses into its own namespace — it never sees `feed`.
    let meta = DatasetMeta {
        n_hosts: 8,
        host_kinds: vec![HostKind::Workstation; 8],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days: 1,
    };
    let alerts = CollectedAlerts::default();
    let mut engine = EngineBuilder::lanl()
        .auto_investigate(true)
        .ingest_chunk_records(64) // small chunks so even this demo fans out
        .alert_log(alerts.clone())
        .build(Arc::new(DomainInterner::new()), meta)
        .expect("valid config");

    // Stream the day in bounded blocks, as a tailer would.
    let mut ingest = engine.begin_day(Day::new(0), IngestSource::Dns);
    for (i, block) in lines.chunks(25).enumerate() {
        let mut text = block.join("\n");
        if i == 1 {
            text.push_str("\ngarbage line from a flaky collector\n");
        }
        let errors = ingest.push_lines(&text);
        for (lineno, e) in errors {
            eprintln!("  block {i}, line {lineno}: {e}");
        }
    }
    println!(
        "streamed {} records ({} bad lines) — finishing day...",
        ingest.records_pushed(),
        ingest.parse_errors()
    );
    let report = ingest.finish();

    println!(
        "\nday {:?}: {} rare destinations, {} C&C detections, {} alerts",
        report.day,
        report.stages.rare_destinations,
        report.stages.cc_detections,
        report.stages.alerts_emitted
    );
    for c in report.detections() {
        println!(
            "  C&C: {} (score {:.1}, period ~{}s, {} automated hosts)",
            c.name,
            c.score,
            c.period_secs.unwrap_or(0),
            c.auto_hosts
        );
    }
    println!("\nAlert stream:");
    for a in alerts.snapshot() {
        println!("  #{} {:<28} {:?} score {:.2}", a.sequence, a.name, a.verdict, a.score);
    }
}
