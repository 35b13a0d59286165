//! Quickstart: stream a hand-built day of DNS traffic through the unified
//! [`Engine`] facade and watch it detect a beaconing C&C domain plus its
//! infection community, end to end (ingest → detect → alert).
//!
//! Run with: `cargo run --release --example quickstart`

use earlybird::engine::{CollectedAlerts, DayBatch, EngineBuilder};
use earlybird::logmodel::{
    DatasetMeta, Day, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind, Ipv4,
    Timestamp,
};
use std::sync::Arc;

fn main() {
    // A miniature day of traffic: two compromised workstations beacon to a
    // C&C domain every 10 minutes and touched the delivery site moments
    // after infection; an innocent host browses something unrelated.
    let domains = Arc::new(DomainInterner::new());
    let mut queries = Vec::new();
    let mut push = |ts: u64, host: u32, name: &str, ip: [u8; 4]| {
        queries.push(DnsQuery {
            ts: Timestamp::from_secs(ts),
            src: HostId::new(host),
            src_ip: Ipv4::new(10, 0, 0, host as u8),
            qname: domains.intern(name),
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
    push(40_000, 7, "totally-fine.net", [8, 8, 8, 8]);
    queries.sort_by_key(|q| q.ts);
    let day = DnsDayLog { day: Day::new(0), queries };

    // One engine, one call: reduce, profile, extract rares, detect C&C,
    // expand by belief propagation, and alert — all inside ingest_day.
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
        .alert_log(alerts.clone())
        .build(Arc::clone(&domains), meta)
        .expect("valid config");

    let report = engine.ingest_day(DayBatch::Dns(&day));

    println!("C&C detections:");
    for c in report.detections() {
        println!(
            "  {} (score {:.1}, period ~{}s, {} automated hosts)",
            c.name,
            c.score,
            c.period_secs.unwrap_or(0),
            c.auto_hosts
        );
    }

    println!("\nBelief propagation community:");
    if let Some(outcome) = &report.outcome {
        for d in &outcome.labeled {
            println!(
                "  iter {} {:<28} score {:.2} ({:?})",
                d.iteration,
                engine.resolve(d.domain),
                d.score,
                d.reason
            );
        }
        println!(
            "\nCompromised hosts: {:?}",
            outcome.compromised_hosts.iter().map(|h| h.to_string()).collect::<Vec<_>>()
        );
    }

    println!("\nAlert stream ({} alerts):", alerts.len());
    for a in alerts.snapshot() {
        println!("  #{} {:<28} {:?} score {:.2}", a.sequence, a.name, a.verdict, a.score);
    }
}
