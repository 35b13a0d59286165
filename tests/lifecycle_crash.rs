//! Crash-during-lifecycle fault injection: kill the store at **every**
//! backend mutation point of the daily persist cycle — staged uploads,
//! finalizes, manifest swaps, GC deletions — and prove `StoreDir::open`
//! always recovers a valid chain with no acknowledged day lost, on every
//! [`ObjectStore`] backend (`{localfs, mem}`).
//!
//! The [`FaultInjector`] counts backend mutations through a
//! `FaultedStore` wrapper and fails the N-th (and, like a dead process,
//! every one after it). The suites below enumerate N from 0 upward until
//! a run completes with no fault fired, so every mutation point in the
//! schedule is killed exactly once — the same sweep against both
//! backends, which is exactly what moving fault injection off the
//! filesystem and onto the backend boundary buys.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{
    CompactionTrigger, DayBatch, Engine, EngineBuilder, FaultInjector, LifecycleConfig,
    Persistence, RetentionPolicy, SnapshotPolicy, StageCounters, StoreError,
};
use earlybird::logmodel::Day;
use earlybird::synthgen::lanl::{LanlChallenge, LanlConfig, LanlGenerator};
use std::collections::BTreeSet;
use std::sync::Arc;
use support::Backend;

fn challenge() -> LanlChallenge {
    LanlGenerator::new(LanlConfig::tiny()).generate()
}

fn engine_for(challenge: &LanlChallenge) -> Engine {
    EngineBuilder::lanl()
        .soc_seed("ioc.planted.c3")
        .auto_investigate(true)
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config")
}

/// Reference counters for every day of the suite, from an engine that
/// never persists at all.
fn reference_counters(challenge: &LanlChallenge) -> Vec<StageCounters> {
    let mut engine = engine_for(challenge);
    challenge.dataset.days.iter().map(|day| engine.ingest_day(DayBatch::Dns(day)).stages).collect()
}

/// After a simulated crash, reopening the store must yield a chain that
/// restores cleanly and still holds every acknowledged day with the exact
/// counters of an uninterrupted run. Returns the restored engine (`None`
/// when the crash predates the first durable block, which is only
/// legitimate while nothing was acknowledged).
fn assert_no_acked_loss(
    backend: &Backend,
    cfg: LifecycleConfig,
    acked: &BTreeSet<Day>,
    reference: &[StageCounters],
    context: &str,
) -> Option<Engine> {
    let dir = backend
        .open(cfg)
        .unwrap_or_else(|e| panic!("{context}: store must reopen after the crash: {e}"));
    if dir.is_empty() {
        assert!(acked.is_empty(), "{context}: acked days {acked:?} but the chain is empty");
        return None;
    }
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let restored = store
        .restore(EngineBuilder::lanl())
        .unwrap_or_else(|e| panic!("{context}: recovered chain must restore: {e}"));
    let days: BTreeSet<Day> = restored.reports().map(|r| r.day).collect();
    for day in acked {
        assert!(days.contains(day), "{context}: acknowledged {day:?} lost; chain holds {days:?}");
    }
    for report in restored.reports() {
        assert!(
            report.stages.deterministic_eq(&reference[report.day.index() as usize]),
            "{context}: counters for {:?}",
            report.day
        );
    }
    Some(restored)
}

/// The daily cycle under fire, on every backend: first persist writes the
/// full block, later ones append segments, and the `max_segments = 2`
/// trigger forces repeated compaction passes (with retention GC) — so the
/// enumerated crash points cover upload begin, staged writes, finalize,
/// the conditional manifest swap, and superseded-chain deletion, in every
/// phase.
#[test]
fn crash_at_every_op_of_the_daily_cycle_loses_no_acked_day() {
    let challenge = challenge();
    let reference = reference_counters(&challenge);
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let days = &challenge.dataset.days[..boot + 6];
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger { max_segments: Some(2) },
        retention: RetentionPolicy { retain_days: Some(3) },
    };

    for template in Backend::matrix("crash-daily") {
        let mut crash_points = 0u64;
        for fault_at in 0u64.. {
            let backend = template.fresh();
            let mut dir = backend.create(cfg).expect("create store");
            let injector = FaultInjector::new();
            dir.set_fault_injector(injector.clone());
            injector.arm(fault_at);
            let store = Persistence::new(dir, SnapshotPolicy::default());

            let mut engine = engine_for(&challenge);
            let mut acked: BTreeSet<Day> = BTreeSet::new();
            let mut crashed = false;
            for day in days {
                engine.ingest_day(DayBatch::Dns(day));
                match store.commit(&engine).and_then(|handle| handle.wait()) {
                    Ok(_) => {
                        acked.insert(day.day);
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, StoreError::Io(_)),
                            "{}: fault {fault_at}: only the injected fault may fail the \
                             cycle: {e}",
                            backend.name()
                        );
                        crashed = true;
                        break;
                    }
                }
            }
            let gc_failures = store.store().gc_failures();
            // The dead process goes away; recovery sees only the store.
            drop(store);
            drop(engine);

            let context = format!("{} fault at op {fault_at}", backend.name());
            let restored = assert_no_acked_loss(&backend, cfg, &acked, &reference, &context);
            drop(restored);
            backend.cleanup();

            if !crashed {
                if !injector.crashed() {
                    crash_points = fault_at;
                    break;
                }
                // The fault fired yet every day was acknowledged: the only
                // mutation allowed to fail without failing the cycle is a
                // best-effort GC delete, and it must have been counted.
                assert!(
                    gc_failures > 0,
                    "{context}: fault fired without an error or a GC-failure count"
                );
            }
        }
        // The schedule above crosses full-commit, segment-commit, and
        // several compaction passes; that is a lot of distinct mutation
        // points.
        assert!(
            crash_points >= 25,
            "{}: expected a deep op schedule, covered {crash_points} points",
            template.name()
        );
    }
}

/// The same kill-sweep with commits on the background worker: a day is
/// acknowledged only after its [`CommitHandle`] resolves, so whatever op
/// the fault lands on — including ops of a commit queued behind others —
/// no acknowledged day may be lost. After the first failure the handle
/// poisons itself, so later commits fail typed instead of building on a
/// chain that never got the frozen bytes.
///
/// [`CommitHandle`]: earlybird::engine::CommitHandle
#[test]
fn crash_at_every_op_of_background_commits_loses_no_acked_day() {
    let challenge = challenge();
    let reference = reference_counters(&challenge);
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let days = &challenge.dataset.days[..boot + 5];
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger { max_segments: Some(2) },
        retention: RetentionPolicy { retain_days: Some(3) },
    };

    for template in Backend::matrix("crash-background") {
        let mut crash_points = 0u64;
        for fault_at in 0u64.. {
            let backend = template.fresh();
            let mut dir = backend.create(cfg).expect("create store");
            let injector = FaultInjector::new();
            dir.set_fault_injector(injector.clone());
            injector.arm(fault_at);
            let store = Persistence::new(dir, SnapshotPolicy::default().background());

            let mut engine = engine_for(&challenge);
            let mut acked: BTreeSet<Day> = BTreeSet::new();
            let mut crashed = false;
            for day in days {
                engine.ingest_day(DayBatch::Dns(day));
                match store.commit(&engine).and_then(|handle| handle.wait()) {
                    Ok(_) => {
                        acked.insert(day.day);
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, StoreError::Io(_)),
                            "{}: fault {fault_at}: only the injected fault may fail the \
                             cycle: {e}",
                            backend.name()
                        );
                        // A block-side failure poisons the handle: later
                        // commits are refused typed instead of landing a
                        // delta on a chain that never got these bytes.
                        // (A compaction-side failure leaves it usable.)
                        if store.poisoned().is_some() {
                            assert!(
                                matches!(
                                    store.commit(&engine),
                                    Err(StoreError::PersistencePoisoned { .. })
                                ),
                                "{}: fault {fault_at}: poisoned handle must refuse commits",
                                backend.name()
                            );
                        }
                        crashed = true;
                        break;
                    }
                }
            }
            let gc_failures = store.store().gc_failures();
            // The dead process goes away; recovery sees only the store.
            drop(store);
            drop(engine);

            let context = format!("{} background fault at op {fault_at}", backend.name());
            let restored = assert_no_acked_loss(&backend, cfg, &acked, &reference, &context);
            drop(restored);
            backend.cleanup();

            if !crashed {
                if !injector.crashed() {
                    crash_points = fault_at;
                    break;
                }
                assert!(
                    gc_failures > 0,
                    "{context}: fault fired without an error or a GC-failure count"
                );
            }
        }
        assert!(
            crash_points >= 20,
            "{}: expected a deep background op schedule, covered {crash_points} points",
            template.name()
        );
    }
}

/// Compaction in isolation, on every backend: build a stable chain once,
/// then crash an explicit `Persistence::compact` at every op. Afterwards the
/// store must hold either the old chain or the new block — never a torn
/// store — with all days intact, and a later un-faulted compaction must
/// succeed.
#[test]
fn crash_at_every_op_of_compaction_leaves_old_or_new_chain() {
    let challenge = challenge();
    let reference = reference_counters(&challenge);
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let split = boot + 4;
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy { retain_days: Some(2) },
    };

    for template in Backend::matrix("crash-compact-master") {
        // The chain every iteration starts from: full + segments.
        let master = template.fresh();
        {
            let dir = master.create(cfg).expect("create store");
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let mut engine = engine_for(&challenge);
            for day in &challenge.dataset.days[..split] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
            assert!(
                store.store().segment_count() >= 3,
                "chain long enough to make compaction interesting"
            );
        }
        let acked: BTreeSet<Day> = (0..split as u32).map(Day::new).collect();

        for fault_at in 0u64.. {
            let backend = master.fork_copy("crash-compact");
            let mut dir = backend.open(cfg).expect("open the copied chain");
            let entries_before = dir.entries().len();
            let injector = FaultInjector::new();
            dir.set_fault_injector(injector.clone());
            injector.arm(fault_at);
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let outcome = store.compact();
            let crashed = outcome.is_err();
            match &outcome {
                Err(e) => assert!(
                    matches!(e, StoreError::Io(_)),
                    "fault {fault_at}: unexpected error {e}"
                ),
                // A fault that fired without failing the pass can only
                // have landed on a best-effort GC delete — counted, never
                // raised.
                Ok(report) if injector.crashed() => assert!(
                    report.gc_failures > 0,
                    "fault {fault_at}: fault fired without an error or a GC-failure count"
                ),
                Ok(_) => {}
            }
            drop(store);

            let context = format!("{} compaction fault at op {fault_at}", backend.name());
            let restored = assert_no_acked_loss(&backend, cfg, &acked, &reference, &context);
            drop(restored);

            // Old chain or new block, never something in between — and the
            // recovered store always accepts a clean compaction.
            let store =
                Persistence::new(backend.open(cfg).expect("reopen"), SnapshotPolicy::default());
            let entries = store.store().entries().len();
            assert!(
                entries == entries_before || entries == 1,
                "{context}: chain must be the old one ({entries_before} entries) or the \
                 compacted one (1 entry), found {entries}"
            );
            let report = store.compact().expect("clean compaction after recovery");
            assert_eq!(
                store.store().entries().len(),
                1,
                "{context}: recovered store compacts fully"
            );
            assert!(report.bytes_after > 0);
            backend.cleanup();

            if !crashed && !injector.crashed() {
                assert!(
                    fault_at >= 5,
                    "compaction has several mutation points, covered {fault_at}"
                );
                break;
            }
        }
        master.cleanup();
    }
}

/// An abandoned pending block (crash between `begin` and commit) never
/// becomes part of the chain on any backend. What residue it leaves is the
/// backend's business: a torn `.tmp` file quarantined at the next open
/// (localfs), or nothing at all (mem stages client-side).
#[test]
fn abandoned_pending_blocks_are_quarantined() {
    let challenge = challenge();
    let split = (challenge.dataset.meta.bootstrap_days + 2) as usize;
    let cfg = LifecycleConfig::default();

    for template in Backend::matrix("crash-abandoned") {
        let backend = template.fresh();
        let store = {
            let dir = backend.create(cfg).expect("create store");
            Persistence::new(dir, SnapshotPolicy::default())
        };
        let mut engine = engine_for(&challenge);
        for day in &challenge.dataset.days[..split] {
            engine.ingest_day(DayBatch::Dns(day));
            store.commit(&engine).expect("freeze").wait().expect("daily persist");
        }
        // Begin a block and walk away mid-write — the staged upload is
        // abandoned.
        {
            let dir = store.store();
            let mut pending = dir.begin(earlybird::store::BlockKind::DaySegment).expect("begin");
            use std::io::Write as _;
            pending.write_all(b"EBSTORE1 torn half-written segment").unwrap();
            drop(pending);
        }
        drop(store);

        let dir = backend.open(cfg).expect("reopen");
        let expected_quarantined = match &backend {
            Backend::LocalFs(_) => 1, // the torn .tmp file
            Backend::Mem(_) => 0,     // staging is invisible
        };
        assert_eq!(
            dir.quarantined().len(),
            expected_quarantined,
            "{}: quarantine sweep of the abandoned upload: {:?}",
            backend.name(),
            dir.quarantined()
        );
        let reopened = Persistence::new(dir, SnapshotPolicy::default());
        let restored = reopened.restore(EngineBuilder::lanl()).expect("chain unaffected");
        assert_eq!(restored.reports().count(), split);
        backend.cleanup();
    }
}

/// The GC-failure satellite, deterministically: walk the fault point
/// forward until it lands on compaction's best-effort GC deletes (the
/// last mutations of the pass). The pass must *succeed*, report the
/// failures in `CompactionReport::gc_failures`, leak the superseded
/// objects, and the next open must quarantine them.
#[test]
fn gc_delete_failures_are_counted_not_fatal() {
    let challenge = challenge();
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy::default(),
    };

    for template in Backend::matrix("gc-count") {
        let master = template.fresh();
        {
            let dir = master.create(cfg).expect("create store");
            let store = Persistence::new(dir, SnapshotPolicy::default());
            let mut engine = engine_for(&challenge);
            for day in &challenge.dataset.days[..boot + 3] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("daily persist");
            }
        }

        let mut witnessed = false;
        for fault_at in 0u64.. {
            let backend = master.fork_copy("gc-count-iter");
            let mut dir = backend.open(cfg).expect("open the copied chain");
            let superseded = dir.entries().len();
            let injector = FaultInjector::new();
            dir.set_fault_injector(injector.clone());
            injector.arm(fault_at);
            let store = Persistence::new(dir, SnapshotPolicy::default());
            match store.compact() {
                Err(_) => {
                    backend.cleanup();
                    continue; // crash before the commit; not the case under test
                }
                Ok(report) if injector.crashed() => {
                    // The fault landed on the GC deletes: all superseded
                    // objects failed to delete (the store is dead), each
                    // one counted — and named, so an operator can reconcile
                    // the leak against the next open's quarantine sweep.
                    assert_eq!(
                        report.gc_failures,
                        superseded as u64,
                        "{}: every superseded object's failed delete is counted",
                        backend.name()
                    );
                    assert_eq!(store.store().gc_failures(), superseded as u64);
                    assert_eq!(
                        report.gc_failed_objects.len(),
                        superseded,
                        "{}: every leaked object is named: {:?}",
                        backend.name(),
                        report.gc_failed_objects
                    );
                    drop(store);
                    // The leaked objects are exactly what the next open
                    // quarantines (quarantine keys embed the original
                    // object name); the compacted chain restores fine.
                    let reopened = backend.open(cfg).expect("reopen");
                    assert_eq!(reopened.quarantined().len(), superseded, "{}", backend.name());
                    for leaked in &report.gc_failed_objects {
                        assert!(
                            reopened.quarantined().iter().any(|q| q.contains(leaked.as_str())),
                            "{}: leaked {leaked:?} missing from quarantine {:?}",
                            backend.name(),
                            reopened.quarantined()
                        );
                    }
                    let restored = Persistence::new(reopened, SnapshotPolicy::default())
                        .restore(EngineBuilder::lanl())
                        .expect("restores");
                    assert_eq!(restored.reports().count(), boot + 3);
                    witnessed = true;
                    backend.cleanup();
                    break;
                }
                Ok(report) => {
                    // Ran past the whole schedule without firing.
                    assert_eq!(report.gc_failures, 0);
                    backend.cleanup();
                    break;
                }
            }
        }
        assert!(
            witnessed,
            "{}: the sweep never landed on a GC delete — schedule changed?",
            template.name()
        );
        master.cleanup();
    }
}
