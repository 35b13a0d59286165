//! The service, end to end: a daemon over a pluggable root store, two
//! tenants ingesting concurrently over HTTP, queries, an investigation,
//! a graceful shutdown — and a second daemon incarnation proving that
//! everything acked durable survives the restart.
//!
//! The storage medium comes from `EARLYBIRD_BACKEND` (`localfs` when
//! unset, or `mem`), so the CI backend matrix drives the same
//! flow over every shipped [`ObjectStore`] implementation.
//!
//! Run with: `cargo run --release --example serve_client`

use earlybird::engine::{LocalFsBackend, MemBackend, ObjectStore};
use earlybird::logmodel::{format_dns_line, DomainInterner};
use earlybird::serve::{InvestigateRequest, ServeClient, Server, ServerConfig, TenantSpec};
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use std::path::PathBuf;
use std::sync::Arc;

/// The root store for one daemon incarnation. The in-memory backend
/// returns another handle on the same shared state, so "restarting the
/// daemon" means opening a new box over what the previous one committed —
/// exactly what reopening a directory does for `localfs`.
enum Root {
    LocalFs(PathBuf),
    Mem(MemBackend),
}

impl Root {
    fn select() -> Root {
        let name = std::env::var("EARLYBIRD_BACKEND").unwrap_or_else(|_| "localfs".into());
        match name.as_str() {
            "localfs" | "all" => {
                let root = std::env::temp_dir()
                    .join(format!("earlybird-serve-example-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&root);
                std::fs::create_dir_all(&root).expect("create store root");
                Root::LocalFs(root)
            }
            "mem" => Root::Mem(MemBackend::new()),
            other => panic!("EARLYBIRD_BACKEND={other:?} (expected localfs or mem)"),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Root::LocalFs(_) => "localfs",
            Root::Mem(_) => "mem",
        }
    }

    fn store(&self) -> Box<dyn ObjectStore> {
        match self {
            Root::LocalFs(root) => Box::new(LocalFsBackend::new(root).expect("open root")),
            Root::Mem(handle) => Box::new(handle.clone()),
        }
    }

    fn cleanup(&self) {
        if let Root::LocalFs(root) = self {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn main() {
    let root = Root::select();
    println!("backend: {}", root.name());

    // A tiny synthetic enterprise, rendered to the tab-separated
    // interchange lines a real collector would POST.
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let meta = &challenge.dataset.meta;
    let spec = TenantSpec {
        n_hosts: meta.n_hosts,
        host_kinds: Vec::new(),
        internal_suffixes: meta.internal_suffixes.clone(),
        bootstrap_days: meta.bootstrap_days,
        total_days: meta.total_days,
        auto_investigate: true,
        soc_seeds: Vec::new(),
        retain_days: 0,
    };
    let domains: &Arc<DomainInterner> = &challenge.dataset.domains;
    let days: Vec<(u32, String)> = challenge
        .dataset
        .days
        .iter()
        .map(|day| {
            let mut text = String::new();
            for q in &day.queries {
                text.push_str(&format_dns_line(q, domains));
                text.push('\n');
            }
            (day.day.index(), text)
        })
        .collect();

    // ---- Incarnation #1: create tenants, ingest, query. ----------------
    let server = Server::bind(root.store(), ServerConfig::default()).expect("bind daemon");
    let addr = server.addr();
    let handle = server.spawn();
    println!("daemon listening on {addr}");

    // Two tenants ingesting the same feed concurrently, each isolated in
    // its own engine + store scope.
    let tenants = ["acme", "globex"];
    std::thread::scope(|scope| {
        for name in tenants {
            let days = &days;
            let spec = &spec;
            scope.spawn(move || {
                let mut client = ServeClient::new(addr);
                client.create_tenant(name, spec).expect("create tenant");
                for (day, text) in days {
                    // A collector may deliver a day in many spans; split
                    // each day in two to exercise resume.
                    let mid = text.len() / 2;
                    let mid = mid + text[mid..].find('\n').map_or(0, |i| i + 1);
                    let (head, tail) = text.split_at(mid);
                    client.push_span(name, *day, head).expect("push span");
                    client.push_span(name, *day, tail).expect("push span");
                    let ack = client.finish_day(name, *day).expect("finish day");
                    assert!(ack.durable, "a 200 finish is durable by contract");
                }
            });
        }
    });

    let mut client = ServeClient::new(addr);
    let page = client.tenants().expect("list tenants");
    for t in &page.tenants {
        println!(
            "tenant {:>6}: {} days ingested, next alert sequence {}",
            t.name, t.days_ingested, t.next_alert_sequence
        );
        assert_eq!(t.days_ingested, u64::from(meta.total_days));
    }

    // Both tenants saw the same feed, so their alert streams agree.
    let acme_alerts = client.alerts("acme", 0).expect("acme alerts");
    let globex_alerts = client.alerts("globex", 0).expect("globex alerts");
    assert_eq!(acme_alerts.alerts, globex_alerts.alerts, "same feed, same alerts");
    println!(
        "alerts: {} per tenant (cursor advances to {})",
        acme_alerts.alerts.len(),
        acme_alerts.next_since
    );
    let cursor = acme_alerts.next_since;

    // An on-demand investigation, seeded with a campaign's SOC hint
    // hosts — the paper's "SOC provides hints" mode over the wire.
    let campaign = challenge
        .campaigns
        .iter()
        .find(|c| !c.hint_hosts.is_empty())
        .expect("a campaign with hint hosts");
    let request = InvestigateRequest::hint_hosts(
        campaign.day.index(),
        campaign.hint_hosts.iter().map(|h| h.index()),
    );
    let outcome = client.investigate("acme", &request).expect("investigate");
    println!(
        "investigation of day {}: {} labeled domains, {} compromised hosts",
        campaign.day.index(),
        outcome.outcome.labeled.len(),
        outcome.outcome.compromised_hosts.len()
    );

    // ---- Graceful shutdown, then a cold second incarnation. ------------
    let ack = client.shutdown().expect("graceful shutdown");
    println!(
        "shutdown: {} tenants checkpointed, {} open days dropped",
        ack.tenants_checkpointed, ack.open_days_dropped
    );
    drop(client);
    handle.join();

    let server = Server::bind(root.store(), ServerConfig::default()).expect("rebind daemon");
    assert_eq!(server.tenant_count(), tenants.len(), "both tenants restore");
    let addr = server.addr();
    let handle = server.spawn();
    let mut client = ServeClient::new(addr);
    for name in tenants {
        let reports = client.reports(name).expect("restored reports").reports;
        assert_eq!(reports.len(), meta.total_days as usize, "every acked day survives");
    }
    // The alert log starts empty after a restart, but the cursor contract
    // holds: the next sequence resumes past everything already delivered.
    let after = client.alerts("acme", cursor).expect("alerts after restart");
    assert!(after.alerts.is_empty() && after.next_since == cursor);
    let page = client.tenants().expect("list tenants");
    assert!(page.tenants.iter().all(|t| t.next_alert_sequence >= cursor));
    println!(
        "restarted daemon restored {} tenants; alert cursors stay monotone",
        page.tenants.len()
    );

    client.shutdown().expect("second shutdown");
    drop(client);
    handle.join();
    root.cleanup();
    println!("service client example OK ({} backend)", root.name());
}
