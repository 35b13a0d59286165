//! Cross-crate pipeline integration through the Engine facade:
//! generator → normalization → reduction → histories → rare sieve → index,
//! checked for internal consistency on both dataset flavours.

use earlybird::engine::{DayBatch, Engine, EngineBuilder};
use earlybird::logmodel::{Day, HostKind};
use earlybird::synthgen::ac::{AcConfig, AcGenerator};
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use std::sync::Arc;

fn lanl_engine(challenge: &earlybird::synthgen::lanl::LanlChallenge) -> Engine {
    EngineBuilder::lanl()
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config")
}

fn ac_engine(world: &earlybird::synthgen::ac::AcWorld) -> Engine {
    EngineBuilder::enterprise()
        .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
        .expect("valid config")
}

#[test]
fn dns_pipeline_invariants_hold_over_a_month() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let mut engine = lanl_engine(&challenge);

    let mut prev_history = 0usize;
    for (i, day_log) in challenge.dataset.days.iter().enumerate() {
        let report = engine.ingest_day(DayBatch::Dns(day_log));
        let counts = report.dns_counts.expect("DNS batches carry DNS counts");
        assert_eq!(counts.records_all, day_log.queries.len());
        assert!(counts.records_a_only <= counts.records_all);
        assert!(counts.domains_all >= counts.domains_after_internal_filter);
        assert!(counts.domains_after_internal_filter >= counts.domains_after_server_filter);
        assert_eq!(engine.history().days_ingested() as usize, i + 1, "one profile update a day");
        if i + 1 == challenge.dataset.meta.bootstrap_days as usize {
            assert!(engine.history().len() > 50, "history populated by the bootstrap");
        }
        if !report.bootstrap {
            let index = engine.day_index(day_log.day).expect("operation day retained");
            // Rare domains are a subset of post-reduction domains.
            assert!(index.rare_count() <= counts.domains_after_server_filter);
            assert!(index.new_count() >= index.rare_count());
            assert_eq!(report.stages.rare_destinations, index.rare_count());
            // Every rare domain has at least one host and fewer than the
            // unpopularity threshold.
            for dom in index.rare_domains() {
                let conn = index.connectivity(dom);
                assert!((1..10).contains(&conn), "connectivity {conn} out of rare bounds");
            }
            // host_rdom and dom_host agree.
            for dom in index.rare_domains() {
                for host in index.hosts_of(dom).unwrap() {
                    assert!(
                        index.rare_domains_of(*host).unwrap().contains(&dom),
                        "bipartite maps inconsistent"
                    );
                }
            }
            // The day's rares join the history at the seal.
            for dom in index.rare_domains() {
                assert!(!engine.history().is_new(dom));
            }
        }
        // The history only grows.
        assert!(engine.history().len() >= prev_history);
        prev_history = engine.history().len();
    }
}

#[test]
fn proxy_pipeline_resolves_hosts_and_tracks_uas() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &world.dataset.meta;
    let mut engine = ac_engine(&world);

    for day_log in &world.dataset.days[..(meta.bootstrap_days as usize)] {
        let report = engine.ingest_day(DayBatch::Proxy { day: day_log, dhcp: &world.dataset.dhcp });
        assert!(report.bootstrap);
    }
    assert!(!engine.ua_history().is_empty(), "UA profiles built during bootstrap");

    let feb1 = world.dataset.day(Day::new(meta.bootstrap_days)).unwrap();
    let report = engine.ingest_day(DayBatch::Proxy { day: feb1, dhcp: &world.dataset.dhcp });
    let norm = report.norm_counts.unwrap();
    assert!(norm.output > 0);
    assert_eq!(norm.input, norm.output + norm.dropped_unresolvable + norm.dropped_ip_literal);
    let index = engine.day_index(feb1.day).expect("operation day retained");
    assert!(index.has_http());

    // HTTP fractions are defined and bounded for rare domains.
    for dom in index.rare_domains() {
        let no_ref = index.no_ref_fraction(dom).unwrap();
        let rare_ua = index.rare_ua_fraction(dom).unwrap();
        assert!((0.0..=1.0).contains(&no_ref));
        assert!((0.0..=1.0).contains(&rare_ua));
    }
}

#[test]
fn server_traffic_never_reaches_the_index() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let meta = &challenge.dataset.meta;
    let servers: Vec<u32> =
        (0..meta.n_hosts).filter(|&h| meta.host_kinds[h as usize] == HostKind::Server).collect();
    assert!(!servers.is_empty());

    // Treat every day as an operation day so day 0 is indexed.
    let mut engine = EngineBuilder::lanl()
        .bootstrap_days(0)
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config");
    engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[0]));
    let index = engine.day_index(Day::new(0)).unwrap();
    for &server in &servers {
        assert!(
            index.rare_domains_of(earlybird::logmodel::HostId::new(server)).is_none(),
            "server {server} must be filtered"
        );
    }
}

#[test]
fn rare_domains_stop_being_rare_once_seen() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let mut engine = EngineBuilder::lanl()
        .bootstrap_days(0)
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config");

    let day0 = engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[0]));
    assert!(day0.stages.rare_destinations > 0);

    // Re-processing the same batch the "next day": every domain is now in
    // the history, so nothing is new.
    let mut replay = challenge.dataset.days[0].clone();
    replay.day = Day::new(1);
    for q in &mut replay.queries {
        q.ts = Day::new(1).start() + q.ts.secs_of_day();
    }
    let day1 = engine.ingest_day(DayBatch::Dns(&replay));
    assert_eq!(day1.stages.new_destinations, 0, "no domain is new on replay");
    assert_eq!(day1.stages.rare_destinations, 0);
}
