//! Snapshot lifecycle manager: the manifest-driven [`StoreDir`], segment
//! compaction, and retention GC — run as a backend matrix.
//!
//! The acceptance bar (ISSUE 4, extended by ISSUE 5 to every
//! [`ObjectStore`] backend): for the LANL DNS and enterprise proxy
//! suites, an engine restored from a **compacted** store produces
//! bit-identical reports/alerts to one restored from the uncompacted
//! `full + N segments` chain — on `{localfs, mem}` alike;
//! `StoreDir::open` quarantines crash residue; stale (backwards) day
//! segments are refused with a typed error; a read-only local store is a
//! typed, actionable error; and the local backend stays byte-compatible
//! with directories written before the backend split.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{
    Alert, CompactionTrigger, DayBatch, DayReport, Engine, EngineBuilder, LifecycleConfig,
    Persistence, RetentionPolicy, SnapshotPolicy, StoreDir, StoreError,
};
use earlybird::logmodel::{
    DatasetMeta, Day, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind, Ipv4,
    Timestamp,
};
use earlybird::store::BlockKind;
use earlybird::synthgen::ac::{AcConfig, AcGenerator, AcWorld};
use earlybird::synthgen::lanl::{LanlChallenge, LanlConfig, LanlGenerator};
use earlybird_engine::CollectedAlerts;
use std::io::Read as _;
use std::path::PathBuf;
use std::sync::Arc;
use support::Backend;

fn temp_store(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("earlybird-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn assert_reports_equal(restored: &DayReport, reference: &DayReport, context: &str) {
    assert_eq!(restored.day, reference.day, "{context}: day");
    assert!(restored.stages.deterministic_eq(&reference.stages), "{context}: stage counters");
    assert_eq!(restored.cc_candidates, reference.cc_candidates, "{context}: candidates");
    assert_eq!(restored.alerts, reference.alerts, "{context}: alerts");
    assert_eq!(restored.outcome, reference.outcome, "{context}: BP outcome");
}

fn lanl_engine(challenge: &LanlChallenge) -> (Engine, CollectedAlerts) {
    let handle = CollectedAlerts::default();
    let engine = EngineBuilder::lanl()
        .soc_seed("ioc.planted.c3")
        .auto_investigate(true)
        .alert_log(handle.clone())
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config");
    (engine, handle)
}

/// Builds a `full + N segments` chain in a fresh store by running the
/// daily cycle for `days[..split]` (compaction disabled so the chain
/// stays long), then drops the engine — the "crash". The chain lives on
/// inside the returned [`Persistence`] handle.
fn build_lanl_chain(challenge: &LanlChallenge, backend: &Backend, split: usize) -> Persistence {
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy::default(),
    };
    let dir = backend.create(cfg).expect("create store");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let (mut engine, _alerts) = lanl_engine(challenge);
    for (i, day) in challenge.dataset.days[..split].iter().enumerate() {
        engine.ingest_day(DayBatch::Dns(day));
        let outcome = store.commit(&engine).expect("freeze").wait().expect("daily persist commits");
        let expected = if i == 0 { BlockKind::Full } else { BlockKind::DaySegment };
        assert_eq!(outcome.block.kind, expected, "day {i} block kind");
        assert!(outcome.compaction.is_none(), "trigger is disabled");
    }
    assert_eq!(store.store().segment_count(), split - 1, "one segment per day after the full");
    store
}

/// Restores from `store`, ingests `days[split..]`, and returns the final
/// engine plus its continued reports and post-restore alert stream.
fn continue_lanl(
    store: &Persistence,
    challenge: &LanlChallenge,
    split: usize,
) -> (Engine, Vec<DayReport>, Vec<Alert>) {
    let alerts = CollectedAlerts::default();
    let mut engine =
        store.restore(EngineBuilder::lanl().alert_log(alerts.clone())).expect("chain restores");
    let reports = challenge.dataset.days[split..]
        .iter()
        .map(|day| engine.ingest_day(DayBatch::Dns(day)))
        .collect();
    (engine, reports, alerts.snapshot())
}

/// The acceptance criterion on the LANL DNS suite, across the backend
/// matrix: a compacted store and the uncompacted chain it replaced restore
/// to engines whose continued reports, alerts, and re-scored candidates
/// are bit-identical — to each other and to an engine that never
/// restarted.
#[test]
fn lanl_compacted_store_restores_bit_identically() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 4) as usize;

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    let mut ref_reports = Vec::new();
    for day in &challenge.dataset.days {
        ref_reports.push(reference.ingest_day(DayBatch::Dns(day)));
    }

    for backend in Backend::matrix("lanl-equiv") {
        let ctx = backend.name();
        let store = build_lanl_chain(&challenge, &backend, split);
        let chain_entries = store.store().entries().to_vec();
        let (chain_engine, chain_reports, chain_alerts) = continue_lanl(&store, &challenge, split);

        // Compact: the whole chain folds into one full block, atomically.
        let report = store.compact().expect("compaction succeeds");
        assert_eq!(report.segments_folded, chain_entries.len() - 1, "{ctx}");
        assert_eq!(report.gc_failures, 0, "{ctx}: clean pass deletes everything it should");
        assert!(report.gc_failed_objects.is_empty(), "{ctx}: no leaked object names");
        assert_eq!(store.store().entries().len(), 1, "{ctx}: single full block after compaction");
        assert_eq!(store.store().entries()[0].kind, BlockKind::Full, "{ctx}");
        assert!(
            report.bytes_after <= report.bytes_before,
            "{ctx}: compaction never grows the store"
        );
        let (compacted_engine, compacted_reports, compacted_alerts) =
            continue_lanl(&store, &challenge, split);

        // Chain-restored and compacted-restored continuations are
        // identical to each other and to the uninterrupted reference.
        for (i, (chain, compacted)) in chain_reports.iter().zip(&compacted_reports).enumerate() {
            assert_reports_equal(compacted, chain, &format!("{ctx}: compacted vs chain day {i}"));
            assert_reports_equal(
                chain,
                &ref_reports[split + i],
                &format!("{ctx}: chain vs reference {i}"),
            );
        }
        assert_eq!(chain_alerts, compacted_alerts, "{ctx}: alert streams bit-identical");
        let split_day = Day::new(split as u32);
        let expected_suffix: Vec<Alert> =
            ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
        assert!(!expected_suffix.is_empty(), "suite must alert after the split");
        assert_eq!(compacted_alerts, expected_suffix, "{ctx}: reference alert suffix");

        // Retained state agrees everywhere the detection layer reads.
        assert_eq!(
            chain_engine.days().collect::<Vec<_>>(),
            compacted_engine.days().collect::<Vec<_>>(),
            "{ctx}"
        );
        for day in chain_engine.days() {
            assert_eq!(
                chain_engine.cc_scores(day).unwrap(),
                compacted_engine.cc_scores(day).unwrap(),
                "{ctx}: re-scored candidates for {day:?}"
            );
        }
        backend.cleanup();
    }
}

/// The same acceptance criterion on the enterprise proxy suite, sharing
/// the dataset's interners across the restart — matrixed over backends.
#[test]
fn enterprise_proxy_compacted_store_restores_bit_identically() {
    let world: AcWorld = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &world.dataset.meta;
    let last = (meta.bootstrap_days + 8).min(meta.total_days) as usize;
    let split = (meta.bootstrap_days + 4) as usize;

    let ac_engine = |world: &AcWorld| -> (Engine, CollectedAlerts) {
        let handle = CollectedAlerts::default();
        let engine = EngineBuilder::enterprise()
            .whois(world.intel.whois.clone())
            .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
            .auto_investigate(true)
            .alert_log(handle.clone())
            .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
            .expect("valid config");
        (engine, handle)
    };

    let (mut reference, ref_alerts) = ac_engine(&world);
    let mut ref_reports = Vec::new();
    for day in &world.dataset.days[..last] {
        ref_reports.push(reference.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp }));
    }

    for backend in Backend::matrix("proxy-equiv") {
        let ctx = backend.name();
        let cfg = LifecycleConfig {
            compaction: CompactionTrigger::disabled(),
            retention: RetentionPolicy::default(),
        };
        let dir = backend.create(cfg).expect("create store");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        {
            let (mut engine, _alerts) = ac_engine(&world);
            for day in &world.dataset.days[..split] {
                engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
        }

        let continue_proxy = |store: &Persistence| -> (Vec<DayReport>, Vec<Alert>) {
            let alerts = CollectedAlerts::default();
            let builder = EngineBuilder::enterprise()
                .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
                .alert_log(alerts.clone());
            let mut engine = store
                .restore_with_domains(Arc::clone(&world.dataset.domains), builder)
                .expect("chain restores");
            assert!(engine.config().whois.is_some(), "WHOIS registry restored");
            let reports = world.dataset.days[split..last]
                .iter()
                .map(|day| engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp }))
                .collect();
            (reports, alerts.snapshot())
        };

        let (chain_reports, chain_alerts) = continue_proxy(&store);
        store.compact().expect("compaction succeeds");
        assert_eq!(store.store().entries().len(), 1, "{ctx}");
        let (compacted_reports, compacted_alerts) = continue_proxy(&store);

        for (i, (chain, compacted)) in chain_reports.iter().zip(&compacted_reports).enumerate() {
            assert_reports_equal(
                compacted,
                chain,
                &format!("{ctx}: proxy compacted vs chain day {i}"),
            );
            assert_reports_equal(
                chain,
                &ref_reports[split + i],
                &format!("{ctx}: proxy vs reference {i}"),
            );
        }
        let split_day = Day::new(split as u32);
        let expected_suffix: Vec<Alert> =
            ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
        assert_eq!(chain_alerts, expected_suffix, "{ctx}: proxy chain alert suffix");
        assert_eq!(compacted_alerts, expected_suffix, "{ctx}: proxy compacted alert suffix");
        backend.cleanup();
    }
}

/// A store with compaction left to explicit passes, behind a synchronous
/// handle.
fn untriggered_store(backend: &Backend) -> Persistence {
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy::default(),
    };
    Persistence::new(backend.create(cfg).expect("create store"), SnapshotPolicy::default())
}

/// Compacts `store` and asserts that the one block left is byte for byte
/// the full freeze of `writer`, the engine that wrote the chain.
fn assert_compacts_to_full_freeze(store: &Persistence, writer: &Engine, ctx: &str) {
    let report = store.compact().expect("compaction succeeds");
    let mut block = Vec::new();
    {
        let dir = store.store();
        assert_eq!(dir.entries().len(), 1, "{ctx}: one full block after compaction");
        dir.reader().expect("chain reader").read_to_end(&mut block).expect("block reads");
    }
    assert_eq!(report.bytes_after, block.len() as u64, "{ctx}: reported size");
    let mut freeze = Vec::new();
    writer.freeze().write_to(&mut freeze).expect("full freeze writes");
    assert!(
        block == freeze,
        "{ctx}: compacted block ({} bytes) differs from the writer's full freeze ({} bytes)",
        block.len(),
        freeze.len()
    );
}

/// Compaction folds a chain into exactly the bytes a full freeze of the
/// engine that wrote it produces — for a LANL chain with a SOC seed, the
/// same chain after it was compacted once and grew segments again (so
/// its full block carries many days), and an enterprise proxy chain
/// whose shared user-agent and path interners are non-empty.
#[test]
fn compacted_block_is_the_writers_full_freeze() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let world: AcWorld = AcGenerator::new(AcConfig::tiny()).generate();
    let days = &challenge.dataset.days;
    let split = challenge.dataset.meta.bootstrap_days as usize + 8;

    for backend in Backend::matrix("fold-is-freeze") {
        let ctx = backend.name();
        {
            let store = untriggered_store(&backend);
            let (mut engine, _alerts) = lanl_engine(&challenge);
            for day in &days[..split] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
            assert_compacts_to_full_freeze(&store, &engine, &format!("{ctx}: lanl"));
            for day in &days[split..] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
            assert!(store.store().segment_count() > 1, "{ctx}: the chain grew again");
            assert!(engine.days().count() > 10, "{ctx}: the full block carries many days");
            assert_compacts_to_full_freeze(&store, &engine, &format!("{ctx}: lanl regrown"));
        }

        let backend = backend.fresh();
        {
            let store = untriggered_store(&backend);
            let mut engine = EngineBuilder::enterprise()
                .whois(world.intel.whois.clone())
                .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
                .auto_investigate(true)
                .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
                .expect("valid config");
            let last = (world.dataset.meta.bootstrap_days + 6) as usize;
            for day in &world.dataset.days[..last] {
                engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
            assert!(
                !world.dataset.uas.is_empty() && !world.dataset.paths.is_empty(),
                "{ctx}: the user-agent and path tails carry strings"
            );
            assert_compacts_to_full_freeze(&store, &engine, &format!("{ctx}: proxy"));
        }
        backend.cleanup();
    }
}

/// The machine-local knobs a chain was written with (`parallelism`,
/// `parallel_threshold`, `ingest_chunk_records`) survive compaction: the
/// compacted bytes do not depend on the machine that compacts them.
#[test]
fn compaction_keeps_the_writers_machine_local_knobs() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    for backend in Backend::matrix("fold-knobs") {
        let store = untriggered_store(&backend);
        let mut engine = EngineBuilder::lanl()
            .parallelism(3)
            .parallel_threshold(7)
            .ingest_chunk_records(99)
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .expect("valid config");
        let last = challenge.dataset.meta.bootstrap_days as usize + 3;
        for day in &challenge.dataset.days[..last] {
            engine.ingest_day(DayBatch::Dns(day));
            store.commit(&engine).expect("freeze").wait().expect("daily persist");
        }
        assert_compacts_to_full_freeze(&store, &engine, backend.name());
        drop(store);
        backend.cleanup();
    }
}

/// The compaction trigger runs inside the daily cycle: with
/// `max_segments = 3` the chain never grows past 4 visible segments, and
/// the continued run still matches an uninterrupted reference — on every
/// backend.
#[test]
fn daily_cycle_compacts_on_trigger_and_stays_equivalent() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger { max_segments: Some(3) },
        retention: RetentionPolicy::default(),
    };

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    for day in &challenge.dataset.days {
        reference.ingest_day(DayBatch::Dns(day));
    }

    for backend in Backend::matrix("trigger") {
        let ctx = backend.name();
        let mut compactions = 0usize;
        {
            let dir = backend.create(cfg).expect("create store");
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let (mut engine, live_alerts) = lanl_engine(&challenge);
            for day in &challenge.dataset.days {
                engine.ingest_day(DayBatch::Dns(day));
                let outcome = store.commit(&engine).expect("freeze").wait().expect("daily persist");
                if outcome.compaction.is_some() {
                    compactions += 1;
                }
                assert!(
                    store.store().segment_count() <= 3,
                    "{ctx}: trigger keeps the chain bounded"
                );
            }
            assert!(
                compactions >= 2,
                "{ctx}: a long run must compact repeatedly, saw {compactions}"
            );
            // The live run itself is untouched by compaction passes.
            assert_eq!(
                live_alerts.snapshot(),
                ref_alerts.snapshot(),
                "{ctx}: live alerts unaffected"
            );
        }

        // O(current state) restore: the reopened chain holds at most
        // `1 + max_segments` objects however many days were ingested.
        let dir = backend.open(cfg).expect("reopen");
        assert!(dir.entries().len() <= 4, "{ctx}: chain stays bounded: {:?}", dir.entries().len());
        assert!(dir.quarantined().is_empty(), "{ctx}: clean shutdown leaves no orphans");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        let restored = store.restore(EngineBuilder::lanl()).expect("restores");
        assert_eq!(
            restored.days().collect::<Vec<_>>(),
            reference.days().collect::<Vec<_>>(),
            "{ctx}: retained days survive compaction cycles"
        );
        for (a, b) in restored.reports().zip(reference.reports()) {
            assert_eq!(a.day, b.day, "{ctx}");
            assert!(a.stages.deterministic_eq(&b.stages), "{ctx}: stored counters for {:?}", a.day);
        }
        backend.cleanup();
    }
}

/// Retention GC: compaction prunes contact indexes past `retain_days`, the
/// pruned days' counter reports stay in the full block, and the continued
/// run is still bit-identical to an uninterrupted engine.
#[test]
fn retention_gc_prunes_indexes_but_keeps_counters() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let split = boot + 5;

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    let mut ref_reports = Vec::new();
    for day in &challenge.dataset.days {
        ref_reports.push(reference.ingest_day(DayBatch::Dns(day)));
    }

    for backend in Backend::matrix("retention") {
        let ctx = backend.name();
        let cfg = LifecycleConfig {
            compaction: CompactionTrigger::disabled(),
            retention: RetentionPolicy { retain_days: Some(2) },
        };
        let dir = backend.create(cfg).expect("create store");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        {
            let (mut engine, _alerts) = lanl_engine(&challenge);
            for day in &challenge.dataset.days[..split] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
        }

        let report = store.compact().expect("compaction succeeds");
        assert_eq!(
            report.days_pruned,
            split - boot - 2,
            "{ctx}: all but the newest 2 indexes pruned"
        );

        let alerts = CollectedAlerts::default();
        let mut restored =
            store.restore(EngineBuilder::lanl().alert_log(alerts.clone())).expect("restores");
        assert_eq!(restored.days().count(), 2, "{ctx}: only the retention window investigable");
        assert_eq!(restored.reports().count(), split, "{ctx}: every acked day's counters survive");
        for report in restored.reports() {
            let reference = &ref_reports[report.day.index() as usize];
            assert!(report.stages.deterministic_eq(&reference.stages), "{ctx}: {:?}", report.day);
        }
        let pruned = Day::new(boot as u32);
        assert!(restored.day_index(pruned).is_none(), "{ctx}: pruned day not investigable");
        assert!(restored.report(pruned).is_some(), "{ctx}: but its counters are still the record");

        // Continued ingestion is unaffected by the pruned indexes.
        for (i, day) in challenge.dataset.days[split..].iter().enumerate() {
            let report = restored.ingest_day(DayBatch::Dns(day));
            assert_reports_equal(&report, &ref_reports[split + i], &format!("{ctx}: post-GC {i}"));
        }
        let split_day = Day::new(split as u32);
        let expected_suffix: Vec<Alert> =
            ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
        assert_eq!(alerts.snapshot(), expected_suffix, "{ctx}: post-GC alert stream");
        backend.cleanup();
    }
}

/// A restored engine keeps appending segments to the same store — the
/// multi-incarnation daily cycle — and the chain stays replayable.
#[test]
fn restored_engine_continues_the_same_directory() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let first_crash = boot + 2;
    let second_crash = boot + 5;
    let cfg = LifecycleConfig::default();

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    for day in &challenge.dataset.days {
        reference.ingest_day(DayBatch::Dns(day));
    }

    for backend in Backend::matrix("incarnations") {
        // Incarnation 1.
        {
            let dir = backend.create(cfg).expect("create store");
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let (mut engine, _alerts) = lanl_engine(&challenge);
            for day in &challenge.dataset.days[..first_crash] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
        }
        // Incarnation 2: restore, continue appending to the same store.
        {
            let dir = backend.open(cfg).expect("reopen");
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let mut engine = store.restore(EngineBuilder::lanl()).expect("restores");
            for day in &challenge.dataset.days[first_crash..second_crash] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
        }
        // Incarnation 3: the final restore holds every acked day and
        // finishes the stream identically to the uninterrupted reference.
        let dir = backend.open(cfg).expect("reopen");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        let alerts = CollectedAlerts::default();
        let mut engine =
            store.restore(EngineBuilder::lanl().alert_log(alerts.clone())).expect("restores");
        assert_eq!(engine.reports().count(), second_crash, "all acked days restored");
        for day in &challenge.dataset.days[second_crash..] {
            engine.ingest_day(DayBatch::Dns(day));
        }
        let crash_day = Day::new(second_crash as u32);
        let expected_suffix: Vec<Alert> =
            ref_alerts.snapshot().into_iter().filter(|a| a.day >= crash_day).collect();
        assert_eq!(
            alerts.snapshot(),
            expected_suffix,
            "{}: third-incarnation alert stream",
            backend.name()
        );
        backend.cleanup();
    }
}

// -- stale segments ---------------------------------------------------------

fn synthetic_day(domains: &DomainInterner, day: u32) -> DnsDayLog {
    let mut queries = Vec::new();
    for host in [1u32, 2] {
        for beat in 0..12 {
            queries.push(DnsQuery {
                ts: Timestamp::from_secs(u64::from(day) * 86_400 + host as u64 * 5 + beat * 600),
                src: HostId::new(host),
                src_ip: Ipv4::new(10, 0, 0, host as u8),
                qname: domains.intern("cc.evil.example"),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(203, 0, 113, 5)),
            });
        }
    }
    queries.sort_by_key(|q| q.ts);
    DnsDayLog { day: Day::new(day), queries }
}

fn synthetic_engine(domains: &Arc<DomainInterner>, total_days: u32) -> Engine {
    let meta = DatasetMeta {
        n_hosts: 4,
        host_kinds: vec![HostKind::Workstation; 4],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days,
    };
    EngineBuilder::lanl().build(Arc::clone(domains), meta).expect("valid config")
}

/// The PR-4 fix: freezing a segment for a day *behind* the chain's newest
/// persisted day is refused with [`StoreError::StaleSegment`] instead of
/// writing a chain the restore path rejects — on every backend.
// Raw-stream restore has no facade equivalent (streams are not
// manifest-managed); it stays on the deprecated shim for one release.
#[test]
fn stale_day_segment_is_a_typed_error() {
    let domains = Arc::new(DomainInterner::new());
    let mut engine = synthetic_engine(&domains, 4);
    engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
    engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 2)));

    let mut stream = Vec::new();
    engine.freeze().write_to(&mut stream).expect("full checkpoint");

    // Back-fill an older day, then try to freeze it incrementally.
    engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 1)));
    let err = engine.freeze_day().expect_err("stale segment must be refused");
    assert!(
        matches!(err, StoreError::StaleSegment { day: 1, last_persisted: 2 }),
        "typed stale-segment error, got {err}"
    );
    // The refusal happens at freeze time: the stream was never touched
    // and still restores to the checkpointed state.
    let restored = EngineBuilder::lanl().restore_stream(&mut stream.as_slice()).expect("restores");
    assert_eq!(restored.reports().count(), 2);

    // A fresh full snapshot is the sanctioned way to persist back-fill.
    let mut full = Vec::new();
    engine.freeze().write_to(&mut full).expect("full checkpoint covers the back-filled day");
    let restored = EngineBuilder::lanl().restore_stream(&mut full.as_slice()).expect("restores");
    assert_eq!(restored.reports().count(), 3, "back-filled day persisted by the full path");

    // The managed-store path refuses the same way, whatever the backend.
    for backend in Backend::matrix("stale") {
        let dir = backend.create(LifecycleConfig::default()).expect("create");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        let mut engine = synthetic_engine(&domains, 4);
        engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
        engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 2)));
        store.commit(&engine).expect("freeze").wait().expect("first persist writes the full block");
        engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 1)));
        let err = store.commit(&engine).expect_err("stale segment refused");
        assert!(
            matches!(err, StoreError::StaleSegment { day: 1, last_persisted: 2 }),
            "{}: {err}",
            backend.name()
        );
        let restored = store.restore(EngineBuilder::lanl()).expect("chain still replayable");
        assert_eq!(restored.reports().count(), 2, "{}", backend.name());
        backend.cleanup();
    }
}

/// A pending block begun before an intervening commit carries a
/// generation-stale name; committing it is refused typed (it would
/// duplicate a chain entry and brick the manifest) and the store stays
/// healthy — on every backend.
#[test]
fn stale_pending_block_from_an_earlier_generation_is_refused() {
    use earlybird::store::{CheckpointMeta, FORMAT_VERSION};
    use std::io::Write as _;

    let meta_for = |bytes: u64| CheckpointMeta {
        kind: BlockKind::Full,
        format_version: FORMAT_VERSION,
        bytes,
        checksum: 0,
        days: 0,
        retained_days: 0,
    };

    for backend in Backend::matrix("stale-pending") {
        let mut dir = backend.create(LifecycleConfig::default()).expect("create");
        // Two outstanding pendings from the same handle (begin is &self).
        let mut first = dir.begin(BlockKind::Full).expect("begin first");
        let mut second = dir.begin(BlockKind::Full).expect("begin second");
        first.write_all(b"AAAA").unwrap();
        second.write_all(b"BBBBBB").unwrap();

        dir.commit_full(first, &meta_for(4)).expect("first commit wins");
        let err = dir.commit_full(second, &meta_for(6)).expect_err("stale pending refused");
        assert!(matches!(err, StoreError::Corrupt { .. }), "{}: {err}", backend.name());

        // The store is untouched by the refused commit and reopens clean.
        assert_eq!(dir.entries().len(), 1, "{}", backend.name());
        assert_eq!(dir.entries()[0].bytes, 4, "{}: first commit's bytes", backend.name());
        drop(dir);
        let reopened = backend.open(LifecycleConfig::default()).expect("reopens");
        assert_eq!(reopened.entries().len(), 1, "{}", backend.name());
        backend.cleanup();
    }
}

/// The restore path independently rejects a hand-built chain whose segment
/// moves backwards (defense in depth for streams written by other tools).
// Raw-stream restore stays on the deprecated shim for one release.
#[test]
fn restore_rejects_backwards_segment_chains() {
    let domains = Arc::new(DomainInterner::new());

    // Segment stream written by two engines so the write-side guard never
    // sees the regression: engine A persists days 0 and 2; engine B, with
    // the same prefix, persists day 1 as its segment. Splicing B's segment
    // after A's full block yields a backwards chain.
    let mut a = synthetic_engine(&domains, 4);
    a.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
    a.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 2)));
    let mut spliced = Vec::new();
    a.freeze().write_to(&mut spliced).expect("full checkpoint");

    let mut b = synthetic_engine(&domains, 4);
    b.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
    let mut b_stream = Vec::new();
    b.freeze().write_to(&mut b_stream).expect("baseline");
    b.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 1)));
    let baseline = b_stream.len();
    b.freeze_day().expect("fresh day freezes").write_to(&mut b_stream).expect("segment for day 1");
    spliced.extend_from_slice(&b_stream[baseline..]);

    let err =
        EngineBuilder::lanl().restore_stream(&mut spliced.as_slice()).expect_err("must reject");
    assert!(matches!(err, StoreError::Corrupt { .. }), "typed corrupt error, got {err}");
}

// -- quarantine and damage --------------------------------------------------

/// `StoreDir::open` sweeps crash residue — temp files and unreferenced
/// blocks — into `quarantine/` and the chain restores untouched (local
/// filesystem layout, byte-compatible with pre-backend stores).
#[test]
fn open_quarantines_orphans_and_restores() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let root = temp_store("quarantine");
    build_lanl_chain(&challenge, &Backend::LocalFs(root.clone()), split);

    // Crash residue: an abandoned pending block, a superseded chain file
    // that was never deleted, and an unrelated file that must be ignored.
    std::fs::write(root.join("full-000004.ebstore.tmp"), b"torn half-written block").unwrap();
    std::fs::write(root.join("full-000099.ebstore"), b"EBSTORE1 leftover").unwrap();
    std::fs::write(root.join("notes.txt"), b"operator scribbles").unwrap();

    let cfg = LifecycleConfig::default();
    let dir = StoreDir::open(&root, cfg).expect("open sweeps orphans");
    assert_eq!(dir.quarantined().len(), 2, "both orphans quarantined: {:?}", dir.quarantined());
    assert!(root.join("notes.txt").exists(), "foreign files are left alone");
    assert!(!root.join("full-000004.ebstore.tmp").exists());
    assert!(!root.join("full-000099.ebstore").exists());
    for path in dir.quarantined() {
        let path = PathBuf::from(path);
        assert!(path.exists(), "quarantined file preserved at {path:?}");
        assert!(path.starts_with(root.join("quarantine")));
    }
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let restored = store.restore(EngineBuilder::lanl()).expect("chain unaffected");
    assert_eq!(restored.reports().count(), split);
    drop(store);

    // Idempotent: a second open finds nothing left to sweep.
    let again = StoreDir::open(&root, cfg).expect("reopen");
    assert!(again.quarantined().is_empty());
    std::fs::remove_dir_all(&root).unwrap();
}

/// The backend-generic version: an orphan planted through the backend's
/// own upload path is quarantined at open on every backend, and never
/// reappears in the live namespace.
#[test]
fn orphaned_objects_are_quarantined_on_every_backend() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;

    for backend in Backend::matrix("orphans") {
        build_lanl_chain(&challenge, &backend, split);
        backend.plant_orphan("seg-000099.ebstore", b"EBSTORE1 leftover block");

        let dir = backend.open(LifecycleConfig::default()).expect("open sweeps orphans");
        assert_eq!(
            dir.quarantined().len(),
            1,
            "{}: the orphan is quarantined: {:?}",
            backend.name(),
            dir.quarantined()
        );
        let store = Persistence::new(dir, SnapshotPolicy::default());
        let restored = store.restore(EngineBuilder::lanl()).expect("chain unaffected");
        assert_eq!(restored.reports().count(), split, "{}", backend.name());
        drop(store);

        // Idempotent: a second open finds nothing left to sweep.
        let again = backend.open(LifecycleConfig::default()).expect("reopen");
        assert!(again.quarantined().is_empty(), "{}", backend.name());
        backend.cleanup();
    }
}

/// Damage to the manifest or to manifest-referenced objects is surfaced as
/// a typed error — never silently repaired, never a panic. A missing chain
/// object is checked on every backend; byte-level damage is exercised on
/// the local filesystem where we can reach the raw files.
#[test]
fn damaged_stores_fail_with_typed_errors() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let cfg = LifecycleConfig::default();

    // A missing chain object, on every backend.
    for backend in Backend::matrix("damage-missing") {
        let store = build_lanl_chain(&challenge, &backend, split);
        let victim = store.store().entries()[1].name.clone();
        drop(store);
        backend.delete_object(&victim);
        let err = backend.open(cfg).expect_err("missing chain object");
        assert!(matches!(err, StoreError::Corrupt { .. }), "{}: {err}", backend.name());
        backend.cleanup();
    }

    // A truncated chain file (length disagrees with the manifest).
    let root = temp_store("damage-truncated");
    let store = build_lanl_chain(&challenge, &Backend::LocalFs(root.clone()), split);
    let victim = root.join(&store.store().entries()[1].name);
    drop(store);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let err = StoreDir::open(&root, cfg).expect_err("truncated chain file");
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&root).unwrap();

    // A flipped bit in the manifest itself.
    let root = temp_store("damage-manifest");
    build_lanl_chain(&challenge, &Backend::LocalFs(root.clone()), split);
    let manifest = root.join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(&manifest, &bytes).unwrap();
    let err = StoreDir::open(&root, cfg).expect_err("corrupt manifest");
    assert!(
        matches!(err, StoreError::ChecksumMismatch { .. } | StoreError::Corrupt { .. }),
        "{err}"
    );
    std::fs::remove_dir_all(&root).unwrap();

    // A flipped bit inside a chain file's payload passes open (lengths
    // match) but is caught by the block CRC during restore.
    let root = temp_store("damage-payload");
    let store = build_lanl_chain(&challenge, &Backend::LocalFs(root.clone()), split);
    let victim = root.join(&store.store().entries()[0].name);
    drop(store);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(&victim, &bytes).unwrap();
    let dir = StoreDir::open(&root, cfg).expect("lengths still match");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let err = store.restore(EngineBuilder::lanl()).expect_err("bit rot caught on restore");
    assert!(
        matches!(
            err,
            StoreError::ChecksumMismatch { .. } | StoreError::Corrupt { .. } | StoreError::BadMagic
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The read-only satellite: opening a store whose directory refuses
/// writes, when crash residue needs quarantining, fails *up front* with
/// the typed, actionable [`StoreError::ReadOnlyStore`] — not a raw I/O
/// error halfway through the sweep. A clean read-only store still opens
/// and restores (cold standbys read from read-only mounts).
#[cfg(unix)]
#[test]
fn read_only_store_is_a_typed_actionable_error() {
    use std::os::unix::fs::PermissionsExt;

    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let cfg = LifecycleConfig::default();
    let root = temp_store("read-only");
    build_lanl_chain(&challenge, &Backend::LocalFs(root.clone()), split);
    // Crash residue that will need quarantining.
    std::fs::write(root.join("seg-000099.ebstore"), b"EBSTORE1 leftover").unwrap();

    let make_read_only = |on: bool| {
        let mode = if on { 0o555 } else { 0o755 };
        std::fs::set_permissions(&root, std::fs::Permissions::from_mode(mode)).unwrap();
    };

    make_read_only(true);
    let err = StoreDir::open(&root, cfg).expect_err("read-only store with residue must refuse");
    assert!(matches!(err, StoreError::ReadOnlyStore { .. }), "typed error, got {err}");
    let shown = err.to_string();
    assert!(
        shown.contains("read-only") && shown.contains("permissions"),
        "actionable message: {shown}"
    );
    // Nothing was half-swept: the residue is still in place.
    assert!(root.join("seg-000099.ebstore").exists(), "no partial sweep");

    // Writable again: the sweep completes and the store opens.
    make_read_only(false);
    let dir = StoreDir::open(&root, cfg).expect("writable store opens");
    assert_eq!(dir.quarantined().len(), 1);
    drop(dir);

    // A *clean* store on a read-only mount still opens and restores.
    make_read_only(true);
    let dir = StoreDir::open(&root, cfg).expect("clean read-only store opens");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let restored = store.restore(EngineBuilder::lanl()).expect("read-only restore works");
    assert_eq!(restored.reports().count(), split);
    drop(store);
    make_read_only(false);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Byte-compatibility acceptance: a store laid out exactly as the
/// pre-backend (PR 4) filesystem code wrote it — raw chain files plus a
/// hand-encoded `MANIFEST` — opens through [`LocalFsBackend`], restores,
/// and keeps accepting the daily cycle.
#[test]
fn local_fs_opens_a_pre_backend_layout_store() {
    use earlybird::store::{crc32, Encoder};

    let domains = Arc::new(DomainInterner::new());
    let mut engine = synthetic_engine(&domains, 4);

    // Write the chain the way PR 4 did: one full block and one segment,
    // as raw files named by generation.
    engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
    let mut full = Vec::new();
    let full_meta = engine.freeze().write_to(&mut full).expect("full block");
    engine.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 1)));
    let mut seg = Vec::new();
    let seg_meta = engine.freeze_day().expect("fresh day").write_to(&mut seg).expect("segment");

    let root = temp_store("pre-backend");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("full-000001.ebstore"), &full).unwrap();
    std::fs::write(root.join("seg-000002.ebstore"), &seg).unwrap();

    // Hand-encode the MANIFEST with the pinned PR-4 layout: EBMANIF1,
    // version, generation, entry count, then (kind, name, bytes, crc) per
    // entry, sealed by a trailing CRC-32.
    let mut body = Vec::from(*b"EBMANIF1");
    let mut e = Encoder::new();
    e.varint(1); // MANIFEST_VERSION
    e.varint(2); // generation
    e.usizev(2); // entries
    for (kind, name, bytes, crc) in [
        (1u8, "full-000001.ebstore", full.len() as u64, full_meta.checksum),
        (2u8, "seg-000002.ebstore", seg.len() as u64, seg_meta.checksum),
    ] {
        e.u8(kind);
        e.str(name);
        e.varint(bytes);
        e.varint(crc as u64);
    }
    body.extend_from_slice(&e.into_bytes());
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(root.join("MANIFEST"), &body).unwrap();

    // The new backend opens the old layout bit-for-bit.
    let dir = StoreDir::open(&root, LifecycleConfig::default()).expect("pre-backend opens");
    assert_eq!(dir.generation(), 2);
    assert_eq!(dir.entries().len(), 2);
    assert!(dir.quarantined().is_empty());
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let mut restored = store.restore(EngineBuilder::lanl()).expect("restores");
    assert_eq!(restored.reports().count(), 2);

    // And the daily cycle keeps appending to it with the same names.
    restored.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 2)));
    store.commit(&restored).expect("freeze").wait().expect("cycle continues on the old store");
    assert_eq!(store.store().generation(), 3);
    assert_eq!(store.store().entries()[2].name, "seg-000003.ebstore");
    assert!(root.join("seg-000003.ebstore").exists());
    std::fs::remove_dir_all(&root).unwrap();
}
