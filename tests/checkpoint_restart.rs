//! Cold-restart equivalence of `Engine::checkpoint` / `checkpoint_day` /
//! `EngineBuilder::restore_stream`: ingest days `1..N`, checkpoint, restore into a
//! fresh engine, ingest days `N+1..M` — reports, alerts, and alert sequences
//! must be **bit-identical** to an uninterrupted run, on both the LANL DNS
//! suite and the enterprise proxy suite, through both the full-snapshot and
//! the incremental per-day segment paths.
//!
//! This suite deliberately stays on the deprecated `checkpoint*` /
//! `restore*` shims: it is the compatibility proof that the one-release
//! shims keep producing and reading the exact bytes of the
//! `freeze()`/`Persistence` path until they are removed.

use earlybird::engine::IngestSource;
use earlybird::engine::{
    Alert, CheckpointMeta, CollectedAlerts, CompactionTrigger, DayBatch, DayReport, Engine,
    EngineBuilder, LifecycleConfig, MemBackend, Persistence, SnapshotPolicy, StoreDir, StoreError,
};
use earlybird::logmodel::{
    format_proxy_line, Day, DomainInterner, ProxyDayLog, Symbol, TypedInterner,
};
use earlybird::synthgen::ac::{AcConfig, AcGenerator, AcWorld};
use earlybird::synthgen::lanl::{LanlChallenge, LanlConfig, LanlGenerator};
use earlybird_core::{CcModel, SimScorer};
use earlybird_features::{FeatureScaler, LinearRegression, RegressionModel, CC_FEATURE_NAMES};
use std::sync::Arc;

fn assert_reports_equal(restored: &DayReport, reference: &DayReport, context: &str) {
    assert_eq!(restored.day, reference.day, "{context}: day");
    assert_eq!(restored.bootstrap, reference.bootstrap, "{context}: bootstrap flag");
    assert_eq!(restored.duplicate, reference.duplicate, "{context}: duplicate flag");
    assert!(restored.stages.deterministic_eq(&reference.stages), "{context}: stage counters");
    assert_eq!(restored.dns_counts, reference.dns_counts, "{context}: dns counts");
    assert_eq!(restored.proxy_counts, reference.proxy_counts, "{context}: proxy counts");
    assert_eq!(restored.norm_counts, reference.norm_counts, "{context}: norm counts");
    assert_eq!(restored.cc_candidates, reference.cc_candidates, "{context}: candidates");
    assert_eq!(restored.alerts, reference.alerts, "{context}: alerts");
    assert_eq!(restored.outcome, reference.outcome, "{context}: BP outcome");
}

/// Cross-checks the restored engine against the reference engine on every
/// retained-state accessor the detection layer reads.
fn assert_engines_agree(restored: &Engine, reference: &Engine, context: &str) {
    assert_eq!(
        restored.days().collect::<Vec<_>>(),
        reference.days().collect::<Vec<_>>(),
        "{context}: retained days"
    );
    assert_eq!(restored.history().len(), reference.history().len(), "{context}: history");
    assert_eq!(
        restored.history().days_ingested(),
        reference.history().days_ingested(),
        "{context}: days ingested"
    );
    assert_eq!(restored.ua_history().len(), reference.ua_history().len(), "{context}: UA history");
    for (a, b) in restored.reports().zip(reference.reports()) {
        assert_eq!(a.day, b.day, "{context}: report order");
        assert!(a.stages.deterministic_eq(&b.stages), "{context}: stored {:?}", a.day);
    }
    for day in reference.days() {
        assert_eq!(
            restored.cc_scores(day).unwrap(),
            reference.cc_scores(day).unwrap(),
            "{context}: re-scored candidates for {day:?}"
        );
    }
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

/// Full-snapshot cold restart on the LANL DNS suite.
#[test]
fn lanl_cold_restart_is_bit_identical() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 3) as usize;

    // Reference: one engine, never restarted.
    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    let mut ref_reports = Vec::new();
    for day in &challenge.dataset.days {
        ref_reports.push(reference.ingest_day(DayBatch::Dns(day)));
    }

    // Interrupted: ingest the prefix, checkpoint, drop the engine.
    let mut snapshot = Vec::new();
    let meta: CheckpointMeta;
    {
        let (mut engine, _alerts) = lanl_engine(&challenge);
        for day in &challenge.dataset.days[..split] {
            engine.ingest_day(DayBatch::Dns(day));
        }
        meta = engine.freeze().write_to(&mut snapshot).expect("checkpoint succeeds");
    }
    assert_eq!(meta.days, split, "every ingested day persisted");
    assert!(meta.bytes > 0 && meta.bytes == snapshot.len() as u64);

    // Cold restart: fresh process, fresh alert log; only perf knobs and the alert log
    // come from the builder.
    let restored_alerts = CollectedAlerts::default();
    let mut restored = EngineBuilder::lanl()
        .parallelism(3)
        .parallel_threshold(1)
        .alert_log(restored_alerts.clone())
        .restore_stream(&mut snapshot.as_slice())
        .expect("snapshot restores");

    // Continue ingesting; every report must match the uninterrupted run.
    for (i, day) in challenge.dataset.days[split..].iter().enumerate() {
        let report = restored.ingest_day(DayBatch::Dns(day));
        assert_reports_equal(&report, &ref_reports[split + i], &format!("{:?}", day.day));
    }
    assert_engines_agree(&restored, &reference, "post-restart");

    // The restored alert log is exactly the uninterrupted stream's
    // suffix — sequence numbers included, because the alert counter is
    // part of the snapshot.
    let split_day = Day::new(split as u32);
    let expected_suffix: Vec<Alert> =
        ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
    assert!(!expected_suffix.is_empty(), "suite must alert after the split");
    assert_eq!(restored_alerts.snapshot(), expected_suffix, "alert sequence bit-identical");

    // Investigations on pre-checkpoint days replay identically too.
    for campaign in &challenge.campaigns {
        let inv =
            earlybird::engine::Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied());
        let a = restored.investigate(campaign.day, inv.clone()).unwrap();
        let b = reference.investigate(campaign.day, inv).unwrap();
        assert_eq!(a.outcome, b.outcome, "campaign on {:?}", campaign.day);
    }
}

/// The incremental `checkpoint_day` segment path restores equivalently to a
/// full snapshot: one full block at the bootstrap boundary, then one
/// appended segment per ingested day.
#[test]
fn lanl_incremental_segments_restore_equivalently() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let split = boot + 4;

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    let mut ref_reports = Vec::new();
    for day in &challenge.dataset.days {
        ref_reports.push(reference.ingest_day(DayBatch::Dns(day)));
    }

    // Daily cycle: full snapshot once, then O(day) segments appended to the
    // same stream.
    let mut stream = Vec::new();
    let full_size: usize;
    let mut segment_sizes = Vec::new();
    {
        let (mut engine, _alerts) = lanl_engine(&challenge);
        for day in &challenge.dataset.days[..boot] {
            engine.ingest_day(DayBatch::Dns(day));
        }
        full_size = engine.freeze().write_to(&mut stream).expect("full checkpoint").bytes as usize;
        for day in &challenge.dataset.days[boot..split] {
            engine.ingest_day(DayBatch::Dns(day));
            let meta =
                engine.freeze_day().expect("fresh day").write_to(&mut stream).expect("segment");
            assert_eq!(meta.days, 1, "exactly one new day per segment");
            segment_sizes.push(meta.bytes as usize);
        }
    }
    // O(day), not O(history): each segment is much smaller than the full
    // snapshot it extends.
    for &size in &segment_sizes {
        assert!(
            size < full_size / 2,
            "segment ({size} B) should be far smaller than the full snapshot ({full_size} B)"
        );
    }

    let restored_alerts = CollectedAlerts::default();
    let mut restored = EngineBuilder::lanl()
        .alert_log(restored_alerts.clone())
        .restore_stream(&mut stream.as_slice())
        .expect("full + segments restore");

    for (i, day) in challenge.dataset.days[split..].iter().enumerate() {
        let report = restored.ingest_day(DayBatch::Dns(day));
        assert_reports_equal(&report, &ref_reports[split + i], &format!("{:?}", day.day));
    }
    assert_engines_agree(&restored, &reference, "segments");

    let split_day = Day::new(split as u32);
    let expected_suffix: Vec<Alert> =
        ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
    assert_eq!(restored_alerts.snapshot(), expected_suffix, "segment-path alert sequence");
}

fn ac_engine(world: &AcWorld) -> (Engine, CollectedAlerts) {
    let handle = CollectedAlerts::default();
    let engine = EngineBuilder::enterprise()
        .whois(world.intel.whois.clone())
        .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
        .auto_investigate(true)
        .alert_log(handle.clone())
        .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
        .expect("valid config");
    (engine, handle)
}

/// Cold restart on the enterprise proxy suite (normalization, DHCP leases,
/// HTTP context, rare-UA history, WHOIS registry all in the snapshot).
#[test]
fn enterprise_proxy_cold_restart_is_bit_identical() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let meta = &world.dataset.meta;
    // Cover the bootstrap/operation boundary plus several operation days,
    // splitting in the middle of the operation window.
    let last = (meta.bootstrap_days + 8).min(meta.total_days) as usize;
    let split = (meta.bootstrap_days + 4) as usize;

    let (mut reference, ref_alerts) = ac_engine(&world);
    let mut ref_reports = Vec::new();
    for day in &world.dataset.days[..last] {
        ref_reports.push(reference.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp }));
    }

    let mut snapshot = Vec::new();
    {
        let (mut engine, _alerts) = ac_engine(&world);
        for day in &world.dataset.days[..split] {
            engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
        }
        engine.freeze().write_to(&mut snapshot).expect("checkpoint succeeds");
    }

    // Restart sharing the dataset's interners: the snapshot contents are
    // verified against them, and symbols the dataset minted after the
    // checkpoint stay valid in the restored engine.
    let restored_alerts = CollectedAlerts::default();
    let mut restored = EngineBuilder::enterprise()
        .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
        .alert_log(restored_alerts.clone())
        .restore_stream_with_domains(Arc::clone(&world.dataset.domains), &mut snapshot.as_slice())
        .expect("snapshot restores");
    assert!(restored.config().whois.is_some(), "WHOIS registry restored");

    for (i, day) in world.dataset.days[split..last].iter().enumerate() {
        let report = restored.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
        assert_reports_equal(&report, &ref_reports[split + i], &format!("{:?}", day.day));
    }
    assert_engines_agree(&restored, &reference, "proxy");

    let split_day = Day::new(split as u32);
    let expected_suffix: Vec<Alert> =
        ref_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
    assert_eq!(restored_alerts.snapshot(), expected_suffix, "proxy alert sequence");
}

fn assert_last_string_readable<T>(interner: &TypedInterner<T>, what: &str) {
    let len = interner.len();
    assert!(len > 0, "{what} interner restored empty");
    let last = &interner.resolve(Symbol::from_raw(len as u32 - 1));
    assert_eq!(
        interner.reader().get(last).map(|sym| sym.raw() as usize),
        Some(len - 1),
        "{what}: a reader must find the last restored string `{last}`"
    );
}

/// Over a full block plus a long segment chain, every restored interner
/// resolves its last string through a parse worker's reader, and the next
/// raw-line day is byte-identical to the uninterrupted run.
#[test]
fn restored_interners_read_the_whole_chain() {
    const SEGMENTS: usize = 22;
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let ds = &world.dataset;
    let push = |engine: &mut Engine, day: &ProxyDayLog| -> DayReport {
        let text: String = day
            .records
            .iter()
            .map(|r| format_proxy_line(r, &ds.domains, &ds.uas, &ds.paths) + "\n")
            .collect();
        let mut ingest = engine.begin_day(day.day, IngestSource::Proxy { dhcp: &ds.dhcp });
        assert!(ingest.push_lines(&text).is_empty(), "{:?} parses cleanly", day.day);
        ingest.finish()
    };

    // The engine interns every name itself, from raw lines.
    let mut live = EngineBuilder::enterprise()
        .bootstrap_days(2)
        .auto_investigate(true)
        .build(Arc::new(DomainInterner::new()), ds.meta.clone())
        .expect("valid config");
    let mut chain = Vec::new();
    push(&mut live, &ds.days[0]);
    live.freeze().write_to(&mut chain).expect("full block");
    for day in &ds.days[1..=SEGMENTS] {
        push(&mut live, day);
        live.freeze_day().expect("segment freezes").write_to(&mut chain).expect("segment");
    }

    let raw = Arc::new(DomainInterner::new());
    let mut restored = EngineBuilder::enterprise()
        .restore_stream_with_domains(Arc::clone(&raw), &mut chain.as_slice())
        .expect("chain restores");
    assert_last_string_readable(&raw, "raw domain");
    assert_last_string_readable(restored.folded(), "folded domain");
    assert_last_string_readable(restored.ua_interner(), "user-agent");
    assert_last_string_readable(restored.path_interner(), "path");

    let next = &ds.days[SEGMENTS + 1];
    let (live_report, restored_report) = (push(&mut live, next), push(&mut restored, next));
    assert!(live_report.stages.rare_destinations > 0, "the compared day does real work");
    assert_reports_equal(&restored_report, &live_report, "first day after restore");
    let (mut live_bytes, mut restored_bytes) = (Vec::new(), Vec::new());
    live.freeze_day().expect("freezes").write_to(&mut live_bytes).expect("writes");
    restored.freeze_day().expect("freezes").write_to(&mut restored_bytes).expect("writes");
    assert_eq!(restored_bytes, live_bytes, "the day's segment is byte-identical");
}

/// Trained model parameters (regression weights, scaler bounds, WHOIS
/// defaults) survive the round trip and keep scoring identically.
#[test]
fn trained_models_survive_checkpoint() {
    // A toy trained configuration exercising the Regression variants.
    let xs: Vec<Vec<f64>> = (0..20)
        .map(|i| {
            let no_ref = if i % 2 == 0 { 1.0 } else { 0.0 };
            vec![1.0 + i as f64, 1.0, no_ref, 0.5, 100.0, 100.0 - i as f64]
        })
        .collect();
    let y: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
    let scaler = FeatureScaler::fit(&xs).unwrap();
    let fit = LinearRegression::fit_ridge(&scaler.transform_all(&xs), &y, 1e-6).unwrap();
    let model = RegressionModel::new(&CC_FEATURE_NAMES, fit, 0.37);
    let cc_model = CcModel::Regression { model, scaler };

    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let mut engine = EngineBuilder::lanl()
        .cc_model(cc_model.clone())
        .whois_defaults((123.5, 42.25))
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .unwrap();
    for day in &challenge.dataset.days[..split] {
        engine.ingest_day(DayBatch::Dns(day));
    }

    let mut snapshot = Vec::new();
    engine.freeze().write_to(&mut snapshot).unwrap();
    let restored =
        EngineBuilder::lanl().restore_stream(&mut snapshot.as_slice()).expect("snapshot restores");

    let (
        CcModel::Regression { model: a, scaler: sa },
        CcModel::Regression { model: b, scaler: sb },
    ) = (&restored.config().cc_model, &cc_model)
    else {
        panic!("regression model expected after restore");
    };
    assert_eq!(a, b, "regression weights bit-identical");
    assert_eq!(sa, sb, "scaler bounds bit-identical");
    assert_eq!(restored.whois_defaults(), (123.5, 42.25));
    match (&restored.config().sim, &engine.config().sim) {
        (SimScorer::Additive { threshold: a, .. }, SimScorer::Additive { threshold: b, .. }) => {
            assert_eq!(a, b)
        }
        other => panic!("additive sim scorer expected, got {other:?}"),
    }
    for day in engine.days() {
        assert_eq!(restored.cc_scores(day).unwrap(), engine.cc_scores(day).unwrap());
    }
}

/// Crash-recovery semantics: restore a snapshot taken after day N, then
/// re-push day N (the "partially ingested day" of an at-least-once log
/// replayer). The duplicate-day guard absorbs it silently — no double
/// profile counting, no duplicate alerts — and day N+1 continues exactly.
#[test]
fn crash_recovery_replay_raises_no_double_alerts() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;

    let (mut reference, ref_alerts) = lanl_engine(&challenge);
    let mut ref_reports = Vec::new();
    for day in &challenge.dataset.days {
        ref_reports.push(reference.ingest_day(DayBatch::Dns(day)));
    }

    let mut snapshot = Vec::new();
    {
        let (mut engine, _alerts) = lanl_engine(&challenge);
        for day in &challenge.dataset.days[..split] {
            engine.ingest_day(DayBatch::Dns(day));
        }
        engine.freeze().write_to(&mut snapshot).unwrap();
    }

    let restored_alerts = CollectedAlerts::default();
    let mut restored = EngineBuilder::lanl()
        .alert_log(restored_alerts.clone())
        .restore_stream(&mut snapshot.as_slice())
        .unwrap();

    // At-least-once delivery: the log replayer re-feeds the last day the
    // snapshot already covers.
    let history_len = restored.history().len();
    let replay = restored.ingest_day(DayBatch::Dns(&challenge.dataset.days[split - 1]));
    assert!(replay.duplicate, "covered day must be flagged as a replay");
    assert_eq!(restored.history().len(), history_len, "profiles not double-counted");
    assert!(restored_alerts.snapshot().is_empty(), "no duplicate alerts on replay");

    // The in-flight day then ingests fresh and matches the reference run.
    let report = restored.ingest_day(DayBatch::Dns(&challenge.dataset.days[split]));
    assert_reports_equal(&report, &ref_reports[split], "post-replay day");
    let split_day = Day::new(split as u32);
    let expected: Vec<Alert> =
        ref_alerts.snapshot().into_iter().filter(|a| a.day == split_day).collect();
    assert_eq!(restored_alerts.snapshot(), expected);
}

/// Deterministic bytes: checkpointing the same state twice — or a restored
/// copy of it — produces identical snapshots.
#[test]
fn checkpoint_bytes_are_deterministic() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let (mut engine, _alerts) = lanl_engine(&challenge);
    for day in &challenge.dataset.days[..split] {
        engine.ingest_day(DayBatch::Dns(day));
    }

    let mut a = Vec::new();
    engine.freeze().write_to(&mut a).unwrap();
    let mut b = Vec::new();
    engine.freeze().write_to(&mut b).unwrap();
    assert_eq!(a, b, "same state, same bytes");

    // checkpoint → restore → checkpoint reproduces the stream bit-for-bit
    // (the builder must mirror the perf knobs, which are snapshotted as
    // written even though restore overrides them).
    let restored = EngineBuilder::lanl()
        .parallelism(engine.config().parallelism)
        .parallel_threshold(engine.config().parallel_threshold)
        .ingest_chunk_records(engine.config().ingest_chunk_records)
        .restore_stream(&mut a.as_slice())
        .unwrap();
    let mut c = Vec::new();
    restored.freeze().write_to(&mut c).unwrap();
    assert_eq!(a, c, "restored engine re-checkpoints identically");
}

/// A stream that does not open with a full snapshot is rejected with a
/// typed error, as is appending a second full snapshot.
#[test]
fn malformed_streams_are_typed_errors() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let (mut engine, _alerts) = lanl_engine(&challenge);
    engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[0]));

    // Segment-first stream.
    let mut seg_only = Vec::new();
    engine.freeze_day().unwrap().write_to(&mut seg_only).unwrap();
    let err = EngineBuilder::lanl().restore_stream(&mut seg_only.as_slice()).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

    // Double-full stream.
    let mut doubled = Vec::new();
    engine.freeze().write_to(&mut doubled).unwrap();
    engine.freeze().write_to(&mut doubled).unwrap();
    let err = EngineBuilder::lanl().restore_stream(&mut doubled.as_slice()).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

    // Empty stream.
    let err = EngineBuilder::lanl().restore_stream(&mut [].as_slice()).unwrap_err();
    assert!(matches!(err, StoreError::Truncated { .. }), "{err}");

    // A caller-shared interner whose contents disagree with the snapshot
    // must be rejected, not silently renumbered.
    let mut snap = Vec::new();
    engine.freeze().write_to(&mut snap).unwrap();
    let foreign = Arc::new(earlybird::logmodel::DomainInterner::new());
    foreign.intern("unrelated.example");
    let err = EngineBuilder::lanl()
        .restore_stream_with_domains(foreign, &mut snap.as_slice())
        .unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
}

/// An enterprise engine committing one day at a time into a managed
/// in-memory store, through `last` (inclusive).
fn ac_committed_through(
    world: &AcWorld,
    last: Day,
    store: LifecycleConfig,
) -> (Engine, Persistence) {
    let (mut engine, _alerts) = ac_engine(world);
    let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), store).expect("create store");
    let persistence = Persistence::new(dir, SnapshotPolicy::default());
    for day in world.dataset.days.iter().take_while(|d| d.day <= last) {
        engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
        persistence.commit(&engine).and_then(|h| h.wait()).expect("day committed");
    }
    (engine, persistence)
}

fn restore_ac(world: &AcWorld, persistence: &Persistence) -> Engine {
    let builder = EngineBuilder::enterprise()
        .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths));
    persistence
        .restore_with_domains(Arc::clone(&world.dataset.domains), builder)
        .expect("store restores")
}

fn full_freeze(engine: &Engine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.freeze().write_to(&mut bytes).expect("freeze");
    bytes
}

/// Models trained after the chain started reach the store: segments carry
/// no Config section, so the commit after a configuration change writes a
/// full block, and a restart runs the trained model.
#[test]
fn a_model_trained_mid_chain_survives_restart() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let train_end = world.config.feb_day(14);
    let (mut engine, persistence) =
        ac_committed_through(&world, train_end, LifecycleConfig::default());
    engine.train_enterprise(train_end, &world.intel.vt, 0.4, 0.4).expect("tiny world trains");
    assert!(matches!(engine.config().cc_model, CcModel::Regression { .. }));
    persistence.commit(&engine).and_then(|h| h.wait()).expect("trained engine committed");

    let restored = restore_ac(&world, &persistence);
    assert!(
        matches!(restored.config().cc_model, CcModel::Regression { .. }),
        "restored model: {:?}",
        restored.config().cc_model
    );
    assert_eq!(restored.whois_defaults(), engine.whois_defaults(), "trained WHOIS defaults");
    assert!(full_freeze(&restored) == full_freeze(&engine), "restored state is the live state");
    assert_eq!(persistence.store().segment_count(), 0, "the commit wrote a full block");
}

/// A restart by itself changes no configuration: the restored engine's
/// next commit appends one segment rather than rewriting the chain.
#[test]
fn a_commit_after_restore_appends_one_segment() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let split = world.config.feb_day(2);
    let store = LifecycleConfig {
        compaction: CompactionTrigger { max_segments: None },
        ..LifecycleConfig::default()
    };
    let (_engine, persistence) = ac_committed_through(&world, split, store);
    let segments = persistence.store().segment_count();
    assert!(segments > 0, "the chain has segments");

    let mut restored = restore_ac(&world, &persistence);
    let next = &world.dataset.days[split.index() as usize + 1];
    restored.ingest_day(DayBatch::Proxy { day: next, dhcp: &world.dataset.dhcp });
    persistence.commit(&restored).and_then(|h| h.wait()).expect("next day committed");
    assert_eq!(persistence.store().segment_count(), segments + 1, "one segment appended");
}

/// A raw store stream stays restorable across a configuration change:
/// `freeze_day` keeps appending segments (which carry no configuration),
/// and a fresh `freeze()` is what persists the trained model.
#[test]
fn a_raw_stream_stays_restorable_after_a_config_change() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let train_end = world.config.feb_day(14);
    let (mut engine, _alerts) = ac_engine(&world);
    let mut stream = Vec::new();
    for (i, day) in world.dataset.days.iter().take_while(|d| d.day <= train_end).enumerate() {
        engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
        let snap = if i == 0 { engine.freeze() } else { engine.freeze_day().expect("segment") };
        snap.write_to(&mut stream).expect("block written");
    }
    engine.train_enterprise(train_end, &world.intel.vt, 0.4, 0.4).expect("tiny world trains");
    for day in &world.dataset.days[train_end.index() as usize + 1..][..2] {
        engine.ingest_day(DayBatch::Proxy { day, dhcp: &world.dataset.dhcp });
        engine.freeze_day().expect("segment").write_to(&mut stream).expect("block written");
    }

    let restore = |bytes: &[u8]| {
        EngineBuilder::enterprise()
            .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
            .restore_stream_with_domains(Arc::clone(&world.dataset.domains), &mut &bytes[..])
            .expect("stream restores")
    };
    let restored = restore(&stream);
    assert_eq!(restored.days().collect::<Vec<_>>(), engine.days().collect::<Vec<_>>());
    assert_eq!(restored.history().len(), engine.history().len(), "history");
    assert_eq!(restored.ua_history().len(), engine.ua_history().len(), "UA history");
    assert!(
        !matches!(restored.config().cc_model, CcModel::Regression { .. }),
        "segments carry no configuration"
    );

    let restarted = restore(&full_freeze(&engine));
    assert!(matches!(restarted.config().cc_model, CcModel::Regression { .. }), "full freeze");
    assert!(full_freeze(&restarted) == full_freeze(&engine), "a new stream holds the live state");
}
