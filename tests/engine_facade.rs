//! The unified Engine facade: mixed DNS + proxy days through one engine,
//! facade/harness consistency, and alert-log ordering & determinism.

use earlybird::engine::{
    Alert, CollectedAlerts, DayBatch, Engine, EngineBuilder, Investigation, Verdict,
};
use earlybird::logmodel::{
    DatasetMeta, Day, DhcpLease, DhcpLog, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner,
    HostId, HostKind, HttpMethod, HttpStatus, Ipv4, PathInterner, ProxyDayLog, ProxyRecord,
    Timestamp, TzOffset,
};
use earlybird::synthgen::lanl::{ChallengeCase, LanlConfig, LanlGenerator};
use std::sync::Arc;

fn mixed_meta() -> DatasetMeta {
    DatasetMeta {
        n_hosts: 10,
        host_kinds: vec![HostKind::Workstation; 10],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days: 2,
    }
}

/// Day 0 as DNS: hosts 1 and 2 beacon to `cc.alpha.c3` and touched the
/// dropper moments after infection; host 7 is innocent noise.
fn dns_day(domains: &DomainInterner) -> DnsDayLog {
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
        let infected_at = 30_000 + victim as u64 * 40;
        push(infected_at, victim, "drop.alpha.c3", [198, 51, 100, 7]);
        for beat in 0..25 {
            push(infected_at + 60 + beat * 600, victim, "cc.alpha.c3", [198, 51, 100, 99]);
        }
    }
    push(41_000, 7, "fine.noise.c3", [8, 8, 8, 8]);
    queries.sort_by_key(|q| q.ts);
    DnsDayLog { day: Day::new(0), queries }
}

/// Day 1 as proxy traffic: hosts 3 and 4 beacon to `cc.beta.c3` over HTTP
/// behind DHCP leases.
fn proxy_day(domains: &DomainInterner) -> (ProxyDayLog, DhcpLog) {
    let paths = PathInterner::new();
    let path = paths.intern("/ping");
    let day = Day::new(1);
    let mut dhcp = DhcpLog::new();
    for host in [3u32, 4] {
        dhcp.add(DhcpLease {
            ip: Ipv4::new(10, 9, 0, host as u8),
            host: HostId::new(host),
            start: day.start(),
            end: day.start() + 86_400,
        });
    }
    let mut records = Vec::new();
    for host in [3u32, 4] {
        for beat in 0..30 {
            records.push(ProxyRecord {
                ts_local: Timestamp::from_day_secs(day, 20_000 + host as u64 * 13 + beat * 300),
                tz: TzOffset::UTC,
                src_ip: Ipv4::new(10, 9, 0, host as u8),
                host: None,
                domain: domains.intern("cc.beta.c3"),
                dest_ip: Ipv4::new(203, 0, 113, 50),
                method: HttpMethod::Get,
                status: HttpStatus::OK,
                url_path: path,
                user_agent: None,
                referer: None,
            });
        }
    }
    records.sort_by_key(|r| r.ts_local);
    (ProxyDayLog { day, records }, dhcp)
}

#[test]
fn one_engine_ingests_mixed_dns_and_proxy_days() {
    let domains = Arc::new(DomainInterner::new());
    let alerts = CollectedAlerts::default();
    let mut engine = EngineBuilder::lanl()
        .auto_investigate(true)
        .alert_log(alerts.clone())
        .build(Arc::clone(&domains), mixed_meta())
        .expect("valid config");

    let dns = dns_day(&domains);
    let report0 = engine.ingest_day(DayBatch::Dns(&dns));
    let (proxy, dhcp) = proxy_day(&domains);
    let report1 = engine.ingest_day(DayBatch::Proxy { day: &proxy, dhcp: &dhcp });

    // Day 0 (DNS): the beacon is detected and the dropper joins the
    // community through belief propagation.
    let day0: Vec<&str> = report0.detections().map(|c| c.name.as_str()).collect();
    assert_eq!(day0, ["cc.alpha.c3"], "DNS-day C&C detection");
    let outcome0 = report0.outcome.as_ref().expect("auto-investigation ran");
    let labeled0: Vec<String> = outcome0.labeled.iter().map(|d| engine.resolve(d.domain)).collect();
    assert!(labeled0.contains(&"drop.alpha.c3".to_string()), "{labeled0:?}");
    assert!(!labeled0.contains(&"fine.noise.c3".to_string()));
    assert_eq!(
        outcome0.compromised_hosts.iter().copied().collect::<Vec<_>>(),
        [HostId::new(1), HostId::new(2)]
    );

    // Day 1 (proxy): normalization resolved the leases, and the HTTP
    // beacon is detected by the same engine.
    assert!(report1.norm_counts.unwrap().output > 0, "leases resolved");
    let day1: Vec<&str> = report1.detections().map(|c| c.name.as_str()).collect();
    assert_eq!(day1, ["cc.beta.c3"], "proxy-day C&C detection");

    // The alert stream covers both sources in order.
    let stream = alerts.snapshot();
    assert!(stream.len() >= 3, "C&C + related + next-day C&C: {stream:?}");
    assert!(stream.windows(2).all(|w| w[0].sequence < w[1].sequence));
    assert!(stream.iter().any(|a| a.name == "cc.alpha.c3" && a.day == Day::new(0)));
    assert!(stream.iter().any(|a| a.name == "cc.beta.c3" && a.day == Day::new(1)));
    assert!(stream.iter().any(|a| a.name == "drop.alpha.c3" && a.verdict == Verdict::Related));
}

/// Driving the engine by hand must agree with the `eval::lanl::LanlRun`
/// harness wiring (same builder defaults, ingest order, and per-case
/// investigation protocol). Equivalence with the *raw pre-redesign call
/// sequence* is asserted separately by the engine crate's
/// `investigate_matches_raw_call_sequence` unit test, which is allowed to
/// touch the low-level APIs.
#[test]
fn hand_driven_engine_matches_harness_campaign_detections() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let run = earlybird::eval::lanl::LanlRun::new(&challenge);

    let mut engine: Engine = EngineBuilder::lanl()
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config");
    for day in &challenge.dataset.days {
        engine.ingest_day(DayBatch::Dns(day));
    }

    for campaign in &challenge.campaigns {
        let investigation = match campaign.case {
            ChallengeCase::Four => Investigation::no_hint(),
            _ => Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
        };
        let mine = engine
            .investigate(campaign.day, investigation)
            .expect("campaign day retained")
            .reported_names();
        let harness = run.evaluate_campaign(campaign).detected;
        assert_eq!(mine, harness, "campaign on 3/{} must agree", campaign.march_day);
    }
}

/// Alert numbering is deterministic across identical runs, and the
/// attached log holds exactly the alerts the reports returned, in order.
#[test]
fn alert_log_is_ordered_and_deterministic() {
    let run_once = || -> Vec<Alert> {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let log = CollectedAlerts::default();
        let mut engine = EngineBuilder::lanl()
            .auto_investigate(true)
            .alert_log(log.clone())
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .expect("valid config");
        let reported: Vec<Alert> = challenge
            .dataset
            .days
            .iter()
            .flat_map(|day| engine.ingest_day(DayBatch::Dns(day)).alerts)
            .collect();
        assert_eq!(log.snapshot(), reported, "the log is the reports' alerts, concatenated");
        reported
    };

    let alerts_a = run_once();
    let alerts_b = run_once();

    assert!(!alerts_a.is_empty(), "campaign days must alert");
    // Strictly increasing sequence numbers — a total delivery order.
    assert!(alerts_a.windows(2).all(|w| w[0].sequence < w[1].sequence));
    // Identical input produces the identical alert stream.
    assert_eq!(alerts_a, alerts_b);
}

/// `Engine::days()` / `Engine::reports()` guarantee ascending day order no
/// matter how days were fed in (the documented sorted-by-day contract).
#[test]
fn days_and_reports_iterate_in_sorted_day_order() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let mut engine = EngineBuilder::lanl()
        .bootstrap_days(0)
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config");
    // Deliberately scrambled ingestion order.
    for index in [4usize, 0, 6, 2, 5, 1, 3] {
        engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[index]));
    }
    let days: Vec<Day> = engine.days().collect();
    assert_eq!(days.len(), 7);
    assert!(days.windows(2).all(|w| w[0] < w[1]), "days() must ascend: {days:?}");
    let report_days: Vec<Day> = engine.reports().map(|r| r.day).collect();
    assert!(report_days.windows(2).all(|w| w[0] < w[1]), "reports() must ascend");
    assert_eq!(report_days, days, "every scrambled day is an operation day here");
}

/// A finish whose detection panics — on the sequential scoring path and
/// on the worker threads alike — is one typed `WorkerPanicked` error that
/// applies nothing: the engine freezes to the bytes it froze to before the
/// finish, the day is neither registered nor retained, and its history
/// additions are not applied. Failing again on a re-push changes nothing
/// either.
#[test]
fn a_failed_finish_leaves_the_engine_unchanged() {
    use earlybird::engine::{EngineError, IngestSource};
    use earlybird::features::{FeatureScaler, LinearRegression, RegressionModel};

    let freeze_bytes = |engine: &Engine| {
        let mut bytes = Vec::new();
        engine.freeze().write_to(&mut bytes).expect("freeze");
        bytes
    };
    // A model whose scaler expects 3 features (the C&C extractor produces
    // 6) panics while scoring the first automated domain.
    let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0, (i % 2) as f64]).collect();
    let fit = LinearRegression::fit_ridge(&xs, &[0.0; 8], 1e-3).unwrap();
    let model = RegressionModel::new(&["a", "b", "c"], fit, 0.5);
    for parallelism in [1, 2] {
        let domains = Arc::new(DomainInterner::new());
        let day = dns_day(&domains);
        let mut engine = EngineBuilder::lanl()
            .cc_model(earlybird::core::CcModel::Regression {
                model: model.clone(),
                scaler: FeatureScaler::identity(3),
            })
            .parallelism(parallelism)
            .parallel_threshold(1)
            .build(Arc::clone(&domains), mixed_meta())
            .expect("valid config");
        let context = format!("parallelism({parallelism})");
        let mut first_push = None;
        for attempt in 0..2 {
            let mut ingest = engine.begin_day(Day::new(0), IngestSource::Dns);
            ingest.push_dns_records(&day.queries);
            let state = ingest.suspend();
            let before = freeze_bytes(&engine);
            let first = first_push.get_or_insert_with(|| before.clone());
            assert!(
                *first == before,
                "{context}/{attempt}: the re-push starts where the first did"
            );
            let history = (engine.history().len(), engine.ua_history().len());

            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let finished = engine.resume_day(state, IngestSource::Dns).try_finish();
            std::panic::set_hook(hook);
            let err = finished.expect_err("the 3-feature model cannot score");
            assert!(matches!(err, EngineError::WorkerPanicked(_)), "{context}/{attempt}: {err}");

            assert!(freeze_bytes(&engine) == before, "{context}/{attempt}: freeze bytes");
            assert!(engine.report(Day::new(0)).is_none(), "{context}/{attempt}: no report");
            assert!(engine.day_index(Day::new(0)).is_none(), "{context}/{attempt}: no product");
            let after = (engine.history().len(), engine.ua_history().len());
            assert_eq!(after, history, "{context}/{attempt}: histories untouched");
            assert_eq!(engine.history().len(), 0, "{context}/{attempt}: nothing folded yet");
        }
    }
}
