//! Chunk-split equivalence of the streaming ingest path: for *any* way of
//! splitting a day into `begin_day` + `push_*` chunks — including raw-line
//! pushes and parallel worker counts — the resulting [`DayReport`]s, alert
//! streams, and retained engine state (down to the checkpoint bytes) must
//! be identical to `ingest_day` over the whole batch, and a checkpoint
//! taken under one worker count must restore and continue identically
//! under another.

use earlybird::engine::{
    DayBatch, DayReport, Engine, EngineBuilder, IngestSource, Investigation, LifecycleConfig,
    MemBackend, Persistence, SnapshotPolicy, StoreDir,
};
use earlybird::logmodel::{
    format_dns_line, parse_dns_line_unassigned, parse_proxy_line, DatasetMeta, Day, DnsDayLog,
    DnsQuery, DnsRecordType, HostId, HostKind, Ipv4, ProxyDayLog, Timestamp,
};
use earlybird::synthgen::ac::{AcConfig, AcGenerator, AcWorld};
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use earlybird_engine::CollectedAlerts;
use proptest::prelude::*;
use std::sync::Arc;

/// Full-report equality modulo wall-clock time.
fn assert_reports_equal(streamed: &DayReport, batch: &DayReport, context: &str) {
    assert_eq!(streamed.day, batch.day, "{context}: day");
    assert_eq!(streamed.bootstrap, batch.bootstrap, "{context}: bootstrap flag");
    assert_eq!(streamed.duplicate, batch.duplicate, "{context}: duplicate flag");
    assert!(
        streamed.stages.deterministic_eq(&batch.stages),
        "{context}: counters\n  streamed: {:?}\n  batch:    {:?}",
        streamed.stages,
        batch.stages
    );
    assert_eq!(streamed.dns_counts, batch.dns_counts, "{context}: dns counts");
    assert_eq!(streamed.proxy_counts, batch.proxy_counts, "{context}: proxy counts");
    assert_eq!(streamed.norm_counts, batch.norm_counts, "{context}: norm counts");
    assert_eq!(streamed.cc_candidates, batch.cc_candidates, "{context}: candidates");
    assert_eq!(streamed.alerts, batch.alerts, "{context}: alerts");
    assert_eq!(streamed.outcome, batch.outcome, "{context}: BP outcome");
}

/// A random traffic day with a guaranteed beaconing campaign blended in, so
/// the C&C / alert / BP stages always have real work to compare.
fn build_queries(
    raw: &[(u64, u32, u8)],
    domains: &Arc<earlybird::logmodel::DomainInterner>,
) -> Vec<DnsQuery> {
    let mut queries: Vec<DnsQuery> = raw
        .iter()
        .map(|&(ts, host, dom)| DnsQuery {
            ts: Timestamp::from_secs(ts),
            src: HostId::new(host),
            src_ip: Ipv4::new(10, 0, 0, host as u8),
            qname: domains.intern(&format!("d{dom}.example.c3")),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(50, dom, dom, 1)),
        })
        .collect();
    for host in [1u32, 2] {
        for beat in 0..20 {
            queries.push(DnsQuery {
                ts: Timestamp::from_secs(30_000 + host as u64 * 7 + beat * 600),
                src: HostId::new(host),
                src_ip: Ipv4::new(10, 0, 0, host as u8),
                qname: domains.intern("cc.alpha.c3"),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(198, 51, 100, 99)),
            });
        }
    }
    queries.sort_by_key(|q| q.ts);
    queries
}

/// The strongest state-equality probe available: every interner, profile,
/// retained index, report and cursor lands in the full-snapshot bytes. The
/// engine configuration, worker count included, is serialized too, so only
/// engines built with the same knobs can compare equal.
fn checkpoint_bytes(engine: &Engine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.freeze().write_to(&mut bytes).expect("frozen view serializes");
    bytes
}

fn meta_for(n_hosts: u32) -> DatasetMeta {
    DatasetMeta {
        n_hosts,
        host_kinds: vec![HostKind::Workstation; n_hosts as usize],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days: 1,
    }
}

fn engine_for(
    domains: &Arc<earlybird::logmodel::DomainInterner>,
    meta: &DatasetMeta,
    parallelism: usize,
    chunk_records: usize,
) -> (Engine, earlybird::engine::CollectedAlerts) {
    let handle = CollectedAlerts::default();
    let engine = EngineBuilder::lanl()
        .parallelism(parallelism)
        .parallel_threshold(1)
        .ingest_chunk_records(chunk_records)
        .auto_investigate(true)
        .alert_log(handle.clone())
        .build(Arc::clone(domains), meta.clone())
        .expect("valid config");
    (engine, handle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary chunk splits of the same day, `begin_day` + `push_dns_records`
    /// + `finish` must reproduce `ingest_day` exactly: counters, candidates,
    /// alerts (including alert sequence order), BP outcome, and the full
    /// checkpoint bytes of a whole-batch engine with the same knobs.
    #[test]
    fn chunked_pushes_match_whole_batch(
        raw in proptest::collection::vec((0u64..86_400, 0u32..12, 0u8..16), 1..200),
        splits in proptest::collection::vec(1usize..40, 0..8),
        parallelism in 1usize..5,
        chunk_records in 1usize..64,
    ) {
        let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
        let queries = build_queries(&raw, &domains);
        let meta = meta_for(12);

        let (mut batch_engine, batch_alerts) = engine_for(&domains, &meta, 1, usize::MAX);
        let day_log = DnsDayLog { day: Day::new(0), queries: queries.clone() };
        let batch_report = batch_engine.ingest_day(DayBatch::Dns(&day_log));

        let (mut stream_engine, stream_alerts) =
            engine_for(&domains, &meta, parallelism, chunk_records);
        let mut ingest = stream_engine.begin_day(Day::new(0), IngestSource::Dns);
        // Carve the day along the random split points; the tail goes last.
        let mut rest: &[DnsQuery] = &queries;
        for &len in &splits {
            let take = len.min(rest.len());
            let (span, remaining) = rest.split_at(take);
            ingest.push_dns_records(span);
            rest = remaining;
        }
        ingest.push_dns_records(rest);
        prop_assert_eq!(ingest.records_pushed(), queries.len());
        let stream_report = ingest.finish();

        assert_reports_equal(&stream_report, &batch_report, "proptest day");
        prop_assert_eq!(stream_alerts.snapshot(), batch_alerts.snapshot());
        prop_assert_eq!(stream_engine.history().len(), batch_engine.history().len());

        // Byte level: the same day pushed whole into an engine with the
        // streaming engine's knobs leaves identical state behind.
        let (mut whole_engine, _) = engine_for(&domains, &meta, parallelism, chunk_records);
        whole_engine.ingest_day(DayBatch::Dns(&day_log));
        prop_assert_eq!(
            checkpoint_bytes(&stream_engine),
            checkpoint_bytes(&whole_engine),
            "checkpoint bytes must not depend on the chunk split"
        );

        // Post-hoc investigation over the retained day agrees too.
        let by_stream = stream_engine.investigate(Day::new(0), Investigation::no_hint());
        let by_batch = batch_engine.investigate(Day::new(0), Investigation::no_hint());
        match (by_stream, by_batch) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.outcome, b.outcome),
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }
}

/// The whole LANL challenge, streamed in fixed-size chunks with parallel
/// workers, is indistinguishable from batch ingestion: every day report,
/// the full alert sequence, and the retained-day set.
#[test]
fn lanl_challenge_streams_identically() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let meta = &challenge.dataset.meta;

    let (mut batch_engine, batch_alerts) = engine_for(&challenge.dataset.domains, meta, 1, 1 << 20);
    let (mut stream_engine, stream_alerts) = engine_for(&challenge.dataset.domains, meta, 4, 64);

    for day in &challenge.dataset.days {
        let batch_report = batch_engine.ingest_day(DayBatch::Dns(day));
        let mut ingest = stream_engine.begin_day(day.day, IngestSource::Dns);
        for span in day.queries.chunks(777) {
            ingest.push_dns_records(span);
        }
        let stream_report = ingest.finish();
        assert_reports_equal(&stream_report, &batch_report, &format!("day {:?}", day.day));
    }
    assert_eq!(stream_alerts.snapshot(), batch_alerts.snapshot());
    assert!(!stream_alerts.snapshot().is_empty(), "campaigns must alert");
    assert_eq!(stream_engine.days().collect::<Vec<_>>(), batch_engine.days().collect::<Vec<_>>());

    // Campaign investigations on the streamed engine match the batch one.
    for campaign in &challenge.campaigns {
        let a = stream_engine
            .investigate(
                campaign.day,
                Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
            )
            .unwrap();
        let b = batch_engine
            .investigate(
                campaign.day,
                Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
            )
            .unwrap();
        assert_eq!(a.outcome, b.outcome, "campaign 3/{}", campaign.march_day);
    }
}

/// Restart across worker counts: a multi-day stream checkpointed day by
/// day under `parallelism(3)`, restored through [`Persistence`] under
/// `parallelism(1)` and continued, matches an uninterrupted
/// `parallelism(1)` run — every report, the whole alert sequence, and the
/// final checkpoint bytes.
#[test]
fn checkpoint_under_one_worker_count_restores_under_another() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let meta = &challenge.dataset.meta;
    let domains = &challenge.dataset.domains;
    let days = &challenge.dataset.days;
    let cut = (meta.bootstrap_days as usize + 2).min(days.len() - 2);
    let stream = |engine: &mut Engine, day: &DnsDayLog| {
        let mut ingest = engine.begin_day(day.day, IngestSource::Dns);
        for span in day.queries.chunks(777) {
            ingest.push_dns_records(span);
        }
        ingest.finish()
    };

    let (mut reference, reference_alerts) = engine_for(domains, meta, 1, 64);
    let reference_reports: Vec<DayReport> =
        days.iter().map(|day| stream(&mut reference, day)).collect();

    let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), LifecycleConfig::default())
        .expect("create mem store");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let (mut before, before_alerts) = engine_for(domains, meta, 3, 64);
    let mut reports = Vec::new();
    for day in &days[..=cut] {
        reports.push(stream(&mut before, day));
        store.commit(&before).expect("freeze").wait().expect("sync commit");
    }
    drop(before);

    let after_alerts = CollectedAlerts::default();
    let builder = EngineBuilder::lanl()
        .parallelism(1)
        .parallel_threshold(1)
        .ingest_chunk_records(64)
        .alert_log(after_alerts.clone());
    let mut after =
        store.restore_with_domains(Arc::clone(domains), builder).expect("chain restores");
    for day in &days[cut + 1..] {
        reports.push(stream(&mut after, day));
    }

    for (restarted, uninterrupted) in reports.iter().zip(&reference_reports) {
        assert_reports_equal(restarted, uninterrupted, &format!("day {:?}", uninterrupted.day));
    }
    let mut alerts = before_alerts.snapshot();
    alerts.extend(after_alerts.snapshot());
    assert!(!alerts.is_empty(), "campaigns must alert");
    assert_eq!(alerts, reference_alerts.snapshot());
    assert_eq!(
        checkpoint_bytes(&after),
        checkpoint_bytes(&reference),
        "a restart under another worker count must not change a single checkpoint byte"
    );
}

/// An AC world's metadata with each internal suffix written with a leading
/// dot, as a tenant spec may write it.
fn dotted_meta(world: &AcWorld) -> DatasetMeta {
    let mut meta = world.dataset.meta.clone();
    meta.internal_suffixes = meta.internal_suffixes.iter().map(|s| format!(".{s}")).collect();
    meta
}

/// An AC world's proxy days salted with records every reduction filter
/// must drop: IP-literal destinations, names under the internal suffix
/// (fresh ones each day, so later pushes judge names no earlier push saw),
/// and sources no DHCP lease covers.
fn salted_proxy_days(world: &AcWorld, days: usize) -> Vec<ProxyDayLog> {
    let domains = &world.dataset.domains;
    let internal = world.dataset.meta.internal_suffixes[0].as_str();
    world.dataset.days[..days]
        .iter()
        .map(|day| {
            let mut records = Vec::with_capacity(day.records.len() + day.records.len() / 20);
            for (i, rec) in day.records.iter().enumerate() {
                records.push(*rec);
                let mut salt = *rec;
                match i % 60 {
                    0 => salt.domain = domains.intern(&format!("203.0.113.{}", i % 7)),
                    20 => {
                        let name = format!("svc{}.day{}.{internal}", i % 5, day.day.index());
                        salt.domain = domains.intern(&name);
                    }
                    40 => salt.src_ip = Ipv4::new(198, 18, 0, (i % 250) as u8),
                    _ => continue,
                }
                records.push(salt);
            }
            ProxyDayLog { day: day.day, records }
        })
        .collect()
}

/// Proxy days (normalization + DHCP resolution + HTTP context) stream
/// identically as well — reports, alerts, and the checkpoint bytes of an
/// engine with the same knobs that took each day whole — with every
/// normalization and reduction filter firing.
#[test]
fn proxy_days_stream_identically() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &dotted_meta(&world);
    let dhcp = &world.dataset.dhcp;

    let build = |parallelism: usize, chunk: usize| {
        let handle = CollectedAlerts::default();
        let engine = EngineBuilder::enterprise()
            .parallelism(parallelism)
            .parallel_threshold(1)
            .ingest_chunk_records(chunk)
            .auto_investigate(true)
            .alert_log(handle.clone())
            .build(Arc::clone(&world.dataset.domains), meta.clone())
            .expect("valid config");
        (engine, handle)
    };
    let (mut batch_engine, batch_alerts) = build(1, 1 << 20);
    let (mut stream_engine, stream_alerts) = build(4, 50);
    let (mut whole_engine, _) = build(4, 50);

    // Cover the bootstrap/operation boundary plus several operation days.
    let last = (meta.bootstrap_days + 6).min(meta.total_days) as usize;
    let (mut ip_literals, mut unresolvable, mut internal) = (0, 0, 0);
    for day in &salted_proxy_days(&world, last) {
        let batch_report = batch_engine.ingest_day(DayBatch::Proxy { day, dhcp });
        whole_engine.ingest_day(DayBatch::Proxy { day, dhcp });
        let mut ingest = stream_engine.begin_day(day.day, IngestSource::Proxy { dhcp });
        for span in day.records.chunks(311) {
            ingest.push_proxy_records(span);
        }
        let stream_report = ingest.finish();
        assert_reports_equal(&stream_report, &batch_report, &format!("proxy day {:?}", day.day));
        let norm = stream_report.norm_counts.expect("proxy day");
        let counts = stream_report.proxy_counts.expect("proxy day");
        ip_literals += norm.dropped_ip_literal;
        unresolvable += norm.dropped_unresolvable;
        internal += counts.domains_all - counts.domains_after_internal_filter;
    }
    assert!(ip_literals > 0, "IP-literal destinations were dropped");
    assert!(unresolvable > 0, "unresolvable sources were dropped");
    assert!(internal > 0, "internal-suffix names were dropped");
    assert_eq!(stream_alerts.snapshot(), batch_alerts.snapshot());
    assert_eq!(stream_engine.ua_history().len(), batch_engine.ua_history().len());
    assert_eq!(
        checkpoint_bytes(&stream_engine),
        checkpoint_bytes(&whole_engine),
        "checkpoint bytes must not depend on the chunk split"
    );
}

/// The proxy twin of
/// [`checkpoint_under_one_worker_count_restores_under_another`]: the fold
/// memo and the per-name verdicts are not checkpointed, so the restored
/// engine rebuilds both from the restored interner on its first push — and
/// must land on the same reports, alerts and checkpoint bytes as an
/// uninterrupted run.
#[test]
fn proxy_checkpoint_under_one_worker_count_restores_under_another() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &dotted_meta(&world);
    let dhcp = &world.dataset.dhcp;
    let domains = &world.dataset.domains;
    let last = (meta.bootstrap_days + 4).min(meta.total_days) as usize;
    let days = salted_proxy_days(&world, last);
    let cut = meta.bootstrap_days as usize;
    let builder = |parallelism: usize, log: &CollectedAlerts| {
        EngineBuilder::enterprise()
            .parallelism(parallelism)
            .parallel_threshold(1)
            .ingest_chunk_records(64)
            .auto_investigate(true)
            .alert_log(log.clone())
    };
    let stream = |engine: &mut Engine, day: &ProxyDayLog| {
        let mut ingest = engine.begin_day(day.day, IngestSource::Proxy { dhcp });
        for span in day.records.chunks(500) {
            ingest.push_proxy_records(span);
        }
        ingest.finish()
    };

    let reference_alerts = CollectedAlerts::default();
    let mut reference = builder(1, &reference_alerts)
        .build(Arc::clone(domains), meta.clone())
        .expect("valid config");
    let reference_reports: Vec<DayReport> =
        days.iter().map(|day| stream(&mut reference, day)).collect();

    let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), LifecycleConfig::default())
        .expect("create mem store");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let before_alerts = CollectedAlerts::default();
    let mut before =
        builder(3, &before_alerts).build(Arc::clone(domains), meta.clone()).expect("valid");
    let mut reports = Vec::new();
    for day in &days[..=cut] {
        reports.push(stream(&mut before, day));
        store.commit(&before).expect("freeze").wait().expect("sync commit");
    }
    drop(before);

    let after_alerts = CollectedAlerts::default();
    let mut after = store
        .restore_with_domains(Arc::clone(domains), builder(1, &after_alerts))
        .expect("chain restores");
    for day in &days[cut + 1..] {
        reports.push(stream(&mut after, day));
    }

    assert_eq!(reports.len(), reference_reports.len());
    for (restarted, uninterrupted) in reports.iter().zip(&reference_reports) {
        assert_reports_equal(restarted, uninterrupted, &format!("day {:?}", uninterrupted.day));
    }
    let mut alerts = before_alerts.snapshot();
    alerts.extend(after_alerts.snapshot());
    assert_eq!(alerts, reference_alerts.snapshot());
    assert_eq!(
        checkpoint_bytes(&after),
        checkpoint_bytes(&reference),
        "a restart under another worker count must not change a single checkpoint byte"
    );
}

/// Raw-line ingestion matches record ingestion: same records, same report,
/// and parse failures are tallied without derailing the day.
#[test]
fn line_pushes_match_record_pushes() {
    let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
    let raw: Vec<(u64, u32, u8)> =
        (0..150u64).map(|i| (i * 37 % 86_400, (i % 9) as u32, (i % 11) as u8)).collect();
    let queries = build_queries(&raw, &domains);
    let meta = meta_for(12);

    // Reference: records pushed straight in.
    let (mut rec_engine, rec_alerts) = engine_for(&domains, &meta, 2, 16);
    let mut ingest = rec_engine.begin_day(Day::new(0), IngestSource::Dns);
    ingest.push_dns_records(&queries);
    let rec_report = ingest.finish();

    // Lines: serialize with the interchange codec, then stream the text in
    // three blocks with a corrupt line and comments sprinkled in.
    // Note host ids are assigned by first-seen source IP in line order,
    // which matches the generator's numbering here.
    let lines: Vec<String> = queries.iter().map(|q| format_dns_line(q, &domains)).collect();
    let (mut line_engine, line_alerts) = engine_for(&domains, &meta, 3, 16);
    let mut ingest = line_engine.begin_day(Day::new(0), IngestSource::Dns);
    let third = lines.len() / 3;
    let block1 = format!("# header comment\n{}\n", lines[..third].join("\n"));
    let block2 = format!("{}\nthis line is corrupt\n", lines[third..2 * third].join("\n"));
    let block3 = format!("{}\n\n", lines[2 * third..].join("\n"));
    assert!(ingest.push_lines(&block1).is_empty());
    let errors = ingest.push_lines(&block2);
    assert_eq!(errors.len(), 1, "exactly the corrupt line fails");
    assert_eq!(errors[0].0, third + 1, "1-based line number of the bad line within its block");
    assert!(ingest.push_lines(&block3).is_empty());
    assert_eq!(ingest.records_pushed(), queries.len());
    assert_eq!(ingest.parse_errors(), 1);
    let line_report = ingest.finish();

    assert_eq!(line_report.stages.parse_errors, 1);
    let mut expected = rec_report.stages;
    expected.parse_errors = 1; // the only permitted difference
    assert!(line_report.stages.deterministic_eq(&expected), "{:?}", line_report.stages);
    assert_eq!(line_report.cc_candidates, rec_report.cc_candidates);
    assert_eq!(line_report.alerts, rec_report.alerts);
    assert_eq!(line_alerts.snapshot(), rec_alerts.snapshot());
}

/// Degenerate adversarial split: every record arrives in its own push and
/// every raw line in its own `push_lines` call (with comments and `\r\n`
/// endings sprinkled in) — reports and alert streams still match
/// whole-batch ingestion exactly.
#[test]
fn one_record_and_one_line_chunks_match_batch() {
    let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
    let raw: Vec<(u64, u32, u8)> =
        (0..150u64).map(|i| (i * 37 % 86_400, (i % 9) as u32, (i % 11) as u8)).collect();
    let queries = build_queries(&raw, &domains);
    let meta = meta_for(12);

    let (mut batch_engine, batch_alerts) = engine_for(&domains, &meta, 1, usize::MAX);
    let day_log = DnsDayLog { day: Day::new(0), queries: queries.clone() };
    let batch_report = batch_engine.ingest_day(DayBatch::Dns(&day_log));

    // Record path: one record per push.
    let (mut rec_engine, rec_alerts) = engine_for(&domains, &meta, 4, 1);
    let mut ingest = rec_engine.begin_day(Day::new(0), IngestSource::Dns);
    for q in &queries {
        ingest.push_dns_records(std::slice::from_ref(q));
    }
    let rec_report = ingest.finish();
    assert_reports_equal(&rec_report, &batch_report, "1-record chunks");
    assert_eq!(rec_alerts.snapshot(), batch_alerts.snapshot());

    // Line path: one raw line per push.
    let (mut line_engine, line_alerts) = engine_for(&domains, &meta, 4, 1);
    let mut ingest = line_engine.begin_day(Day::new(0), IngestSource::Dns);
    for (i, q) in queries.iter().enumerate() {
        if i % 17 == 0 {
            assert!(ingest.push_lines("# interstitial comment\n").is_empty());
        }
        let line = format_dns_line(q, &domains);
        let block = if i % 2 == 0 { format!("{line}\n") } else { format!("{line}\r\n") };
        assert!(ingest.push_lines(&block).is_empty());
    }
    assert_eq!(ingest.records_pushed(), queries.len());
    let line_report = ingest.finish();
    assert_reports_equal(&line_report, &batch_report, "1-line chunks");
    assert_eq!(line_alerts.snapshot(), batch_alerts.snapshot());
}

/// Three blocks of 1,200 DNS lines for day 0, a third of them naming a
/// never-seen domain and the rest drawn from a small popular set, so the
/// first block's shards all miss the same popular names at once.
fn churn_dns_blocks() -> Vec<String> {
    (0..3u64)
        .map(|b| {
            (0..1_200u64)
                .map(|i| {
                    let name = if i % 3 == 0 {
                        format!("f{b}-{i}.fresh.example")
                    } else {
                        format!("r{}.pop.example", i % 97)
                    };
                    format!("{}\t10.0.0.{}\t{name}\tA\t-\n", b * 20_000 + i * 13, 1 + i % 50)
                })
                .collect()
        })
        .collect()
}

/// Three blocks of 1,200 proxy lines for day 1 with the same mix in every
/// interned field: destinations, paths, user agents and referers.
fn churn_proxy_blocks() -> Vec<String> {
    (0..3u64)
        .map(|b| {
            (0..1_200u64)
                .map(|i| {
                    let domain = if i % 4 == 0 {
                        format!("p{b}-{i}.fresh.example")
                    } else {
                        format!("r{}.pop.example", i % 89)
                    };
                    let path =
                        if i % 5 == 0 { format!("/fresh/{b}/{i}") } else { format!("/s/{}", i % 31) };
                    let ua = match i {
                        _ if i % 11 == 0 => "-".to_owned(),
                        _ if i % 7 == 0 => format!("Agent/{b}.{i}"),
                        _ => format!("Mozilla/{}", i % 13),
                    };
                    let referer =
                        if i % 3 == 0 { format!("ref{}.example", i % 17) } else { "-".to_owned() };
                    format!(
                        "{}\t0\t10.9.0.{}\t{domain}\t93.184.{}.1\tGET\t200\t{path}\t{ua}\t{referer}\n",
                        86_400 + b * 20_000 + i * 13,
                        1 + i % 50,
                        i % 200
                    )
                })
                .collect()
        })
        .collect()
}

/// Line pushes into interners the engine fills itself: every miss is
/// interned in line order, as the per-line parser would, whatever the
/// worker count — so symbol numbering, and with it every checkpoint byte,
/// is the same on every run.
#[test]
fn line_push_numbering_is_deterministic() {
    let (dns_blocks, proxy_blocks) = (churn_dns_blocks(), churn_proxy_blocks());
    let mut dhcp = earlybird::logmodel::DhcpLog::new();
    for k in 1..=50u8 {
        dhcp.add(earlybird::logmodel::DhcpLease {
            ip: Ipv4::new(10, 9, 0, k),
            host: HostId::new(u32::from(k)),
            start: Timestamp::from_secs(86_400),
            end: Timestamp::from_secs(2 * 86_400),
        });
    }
    let meta = DatasetMeta { total_days: 2, ..meta_for(64) };

    let reference_domains = earlybird::logmodel::DomainInterner::new();
    let reference_uas = earlybird::logmodel::UaInterner::new();
    let reference_paths = earlybird::logmodel::PathInterner::new();
    for line in dns_blocks.iter().flat_map(|block| block.lines()) {
        parse_dns_line_unassigned(line, &reference_domains).expect("valid DNS line");
    }
    for line in proxy_blocks.iter().flat_map(|block| block.lines()) {
        parse_proxy_line(line, &reference_domains, &reference_uas, &reference_paths)
            .expect("valid proxy line");
    }

    let run = || {
        let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
        let uas = Arc::new(earlybird::logmodel::UaInterner::new());
        let paths = Arc::new(earlybird::logmodel::PathInterner::new());
        let mut engine = EngineBuilder::lanl()
            .parallelism(4)
            .parallel_threshold(1)
            .ingest_chunk_records(16)
            .proxy_interners(Arc::clone(&uas), Arc::clone(&paths))
            .build(Arc::clone(&domains), meta.clone())
            .expect("valid config");
        let mut ingest = engine.begin_day(Day::new(0), IngestSource::Dns);
        for block in &dns_blocks {
            assert!(ingest.push_lines(block).is_empty());
        }
        ingest.finish();
        let mut ingest = engine.begin_day(Day::new(1), IngestSource::Proxy { dhcp: &dhcp });
        for block in &proxy_blocks {
            assert!(ingest.push_lines(block).is_empty());
        }
        assert!(ingest.finish().stages.records_in > 0);
        assert_eq!(domains.tail(0), reference_domains.tail(0), "raw domain numbering");
        assert_eq!(uas.tail(0), reference_uas.tail(0), "user-agent numbering");
        assert_eq!(paths.tail(0), reference_paths.tail(0), "path numbering");
        checkpoint_bytes(&engine)
    };
    assert_eq!(run(), run(), "two runs over the same lines freeze to the same bytes");
}

/// Interleaved DNS and proxy days on one engine, each streamed in
/// degenerate 1-record chunks, match batch ingestion day for day — the
/// shared fold/filter/history state must not care how days arrive.
#[test]
fn interleaved_dns_and_proxy_days_stream_identically() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &world.dataset.meta;
    let domains = &world.dataset.domains;

    let build = |parallelism: usize, chunk: usize| {
        let handle = CollectedAlerts::default();
        let engine = EngineBuilder::enterprise()
            .parallelism(parallelism)
            .parallel_threshold(1)
            .ingest_chunk_records(chunk)
            .auto_investigate(true)
            .alert_log(handle.clone())
            .build(Arc::clone(domains), meta.clone())
            .expect("valid config");
        (engine, handle)
    };
    let (mut batch_engine, batch_alerts) = build(1, 1 << 20);
    let (mut stream_engine, stream_alerts) = build(4, 1);

    let last = (meta.bootstrap_days + 4).min(meta.total_days) as usize;
    for (i, day) in world.dataset.days[..last].iter().enumerate() {
        if i % 2 == 0 {
            let batch_report =
                batch_engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
            let mut ingest =
                stream_engine.begin_day(day.day, IngestSource::Proxy { dhcp: &world.dataset.dhcp });
            for r in &day.records {
                ingest.push_proxy_records(std::slice::from_ref(r));
            }
            let stream_report = ingest.finish();
            assert_reports_equal(&stream_report, &batch_report, &format!("proxy day {i}"));
        } else {
            // A synthetic DNS day over the same interner and host space.
            let queries: Vec<DnsQuery> = (0..200u64)
                .map(|j| {
                    let host = (j % u64::from(meta.n_hosts.min(8))) as u32;
                    DnsQuery {
                        ts: Timestamp::from_day_secs(day.day, (j * 431) % 86_400),
                        src: HostId::new(host),
                        src_ip: Ipv4::new(10, 1, 0, host as u8),
                        qname: domains.intern(&format!("d{}.interleaved.example", j % 23)),
                        qtype: DnsRecordType::A,
                        answer: Some(Ipv4::new(60, (j % 23) as u8, 1, 1)),
                    }
                })
                .collect();
            let mut queries = queries;
            queries.sort_by_key(|q| q.ts);
            let dns_day = DnsDayLog { day: day.day, queries };
            let batch_report = batch_engine.ingest_day(DayBatch::Dns(&dns_day));
            let mut ingest = stream_engine.begin_day(day.day, IngestSource::Dns);
            for q in &dns_day.queries {
                ingest.push_dns_records(std::slice::from_ref(q));
            }
            let stream_report = ingest.finish();
            assert_reports_equal(&stream_report, &batch_report, &format!("dns day {i}"));
        }
    }
    assert_eq!(stream_alerts.snapshot(), batch_alerts.snapshot());
    assert_eq!(stream_engine.days().collect::<Vec<_>>(), batch_engine.days().collect::<Vec<_>>());
}

/// Replays through the streaming handle are no-ops flagged as duplicates,
/// exactly like `ingest_day` replays.
#[test]
fn streamed_replay_is_a_flagged_noop() {
    let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
    let queries = build_queries(&[(100, 3, 1), (200, 4, 2)], &domains);
    let meta = meta_for(12);
    let (mut engine, _alerts) = engine_for(&domains, &meta, 2, 8);

    let mut first = engine.begin_day(Day::new(0), IngestSource::Dns);
    first.push_dns_records(&queries);
    let first_report = first.finish();
    assert!(!first_report.duplicate);
    let history_len = engine.history().len();

    let mut replay = engine.begin_day(Day::new(0), IngestSource::Dns);
    assert!(replay.is_duplicate());
    replay.push_dns_records(&queries); // must be a no-op
    let replay_report = replay.finish();
    assert!(replay_report.duplicate);
    assert_eq!(engine.history().len(), history_len, "profiles not double-counted");
    assert_eq!(replay_report.stages.rare_destinations, first_report.stages.rare_destinations);
}

#[test]
#[should_panic(expected = "proxy-source")]
fn dns_push_into_proxy_day_panics() {
    let domains = Arc::new(earlybird::logmodel::DomainInterner::new());
    let meta = meta_for(4);
    let (mut engine, _alerts) = engine_for(&domains, &meta, 1, 8);
    let dhcp = earlybird::logmodel::DhcpLog::new();
    let queries = build_queries(&[(100, 1, 1)], &domains);
    let mut ingest = engine.begin_day(Day::new(0), IngestSource::Proxy { dhcp: &dhcp });
    ingest.push_dns_records(&queries);
}
