//! The [`Persistence`] facade's always-on contract, run as a backend
//! matrix:
//!
//! * a **background** commit freezes the engine's persistable state at
//!   the commit cursor — spans of *later* days pushed while the frozen
//!   view serializes (in any chunk split, streaming or batch) never leak
//!   into the committed chain, so the restore is bit-identical to a
//!   quiescent sync checkpoint taken at the same cursor, and every freeze
//!   records a `checkpoint_stall_micros` sample;
//! * in an optimized build, ingest under a background commit after every
//!   day keeps at least 70 % of its idle rate, and no freeze stalls the
//!   ingest thread for more than 25 ms.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{
    CompactionTrigger, DayBatch, Engine, EngineBuilder, IngestSource, LifecycleConfig, MemBackend,
    MetricsRegistry, Persistence, RetentionPolicy, SnapshotPolicy, StoreDir,
};
use earlybird::store::BlockKind;
use earlybird::synthgen::lanl::{LanlChallenge, LanlConfig, LanlGenerator};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;
use support::Backend;

/// One deterministic world shared by every case (generation dominates the
/// per-case cost, and the property quantifies over ingest schedules, not
/// datasets).
fn challenge() -> &'static LanlChallenge {
    static WORLD: OnceLock<LanlChallenge> = OnceLock::new();
    WORLD.get_or_init(|| LanlGenerator::new(LanlConfig::tiny()).generate())
}

/// Held by every test in this file for its whole run, so the timing test
/// never shares the machine with another test's ingest or commit worker.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lanl_engine(challenge: &LanlChallenge) -> Engine {
    EngineBuilder::lanl()
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config")
}

/// The full-snapshot bytes an engine restored from `store` would freeze —
/// the strongest state-equality probe we have (every counter, profile,
/// retained index, and cursor is in there).
fn restored_snapshot_bytes(store: &Persistence) -> Vec<u8> {
    let engine = store.restore(EngineBuilder::lanl()).expect("chain restores");
    let mut bytes = Vec::new();
    engine.freeze().write_to(&mut bytes).expect("frozen view serializes");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any number of later days and any chunk split (streamed
    /// `push_dns_records` or whole-day `ingest_day`) fed to the engine
    /// while a background [`CommitHandle`] is still in flight, the chain
    /// that commit produced restores bit-identically to a quiescent
    /// *sync* checkpoint of the same days — on every backend. Every
    /// freeze of the reference cycle records a `checkpoint_stall_micros`
    /// sample.
    #[test]
    fn background_commit_is_isolated_from_concurrent_ingest(
        extra_days in 1usize..=2,
        chunks in 1usize..=4,
        stream_later_days in proptest::bool::ANY,
    ) {
        let _serial = serial();
        let challenge = challenge();
        let boot = challenge.dataset.meta.bootstrap_days as usize;
        // The cursor under test: the first post-bootstrap operation day.
        let cut = boot + 1;
        let cfg = LifecycleConfig {
            compaction: CompactionTrigger::disabled(),
            retention: RetentionPolicy::default(),
        };

        for template in Backend::matrix("persist-bg") {
            // ---- Reference: quiescent sync commits of days[..=cut]. ----
            let backend = template.fresh();
            let store =
                Persistence::new(backend.create(cfg).expect("create store"), SnapshotPolicy::default());
            let mut engine = lanl_engine(challenge);
            for day in &challenge.dataset.days[..=cut] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("sync commit");
            }
            let stalls =
                engine.metrics().latency_histogram("checkpoint_stall_micros", "", &[]).count();
            prop_assert!(
                stalls >= (cut + 1) as u64,
                "{}: {} freezes must each record a stall sample, got {}",
                backend.name(),
                cut + 1,
                stalls
            );
            let reference_bytes = restored_snapshot_bytes(&store);
            drop(store);

            // ---- Under test: day `cut` committed in the background, ----
            // ---- later days ingested while the handle is in flight. ----
            let backend = backend.fresh();
            let store = Persistence::new(
                backend.create(cfg).expect("create store"),
                SnapshotPolicy::default().background(),
            );
            let mut engine = lanl_engine(challenge);
            for day in &challenge.dataset.days[..cut] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("background commit");
            }
            engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[cut]));
            let inflight = store.commit(&engine).expect("freeze is immediate");

            // The freeze has happened; everything ingested from here on
            // must be invisible to the commit racing underneath it.
            for day in &challenge.dataset.days[cut + 1..cut + 1 + extra_days] {
                if stream_later_days {
                    let chunk_len = (day.queries.len() / chunks).max(1);
                    let mut ingest = engine.begin_day(day.day, IngestSource::Dns);
                    for chunk in day.queries.chunks(chunk_len) {
                        ingest.push_dns_records(chunk);
                    }
                    ingest.finish();
                } else {
                    engine.ingest_day(DayBatch::Dns(day));
                }
            }
            let outcome = inflight.wait().expect("in-flight commit lands");
            prop_assert_eq!(outcome.block.kind, BlockKind::DaySegment, "{}", backend.name());
            prop_assert_eq!(outcome.block.days, 1, "{}: a segment carries one day", backend.name());
            store.drain().expect("queue drains clean");
            drop(store); // worker joins; only the backend survives

            let store = Persistence::new(
                backend.open(cfg).expect("reopen store"),
                SnapshotPolicy::default(),
            );
            let restored = store.restore(EngineBuilder::lanl()).expect("chain restores");
            prop_assert_eq!(
                restored.reports().count(),
                cut + 1,
                "{}: later days must not leak into the chain",
                backend.name()
            );
            drop(restored);
            let background_bytes = restored_snapshot_bytes(&store);
            prop_assert_eq!(
                &background_bytes,
                &reference_bytes,
                "{}: background commit under concurrent ingest must be \
                 bit-identical to the quiescent checkpoint at the same cursor",
                backend.name()
            );
            drop(store);
            backend.cleanup();
        }
    }
}

/// Runs of each arm in [`background_commits_keep_ingest_near_its_idle_rate`].
const ALWAYS_ON_RUNS: usize = 4;

/// The always-on cycle's two timing bounds. Every day of the
/// `LanlConfig::small()` world is ingested and then committed on a
/// background [`Persistence`] worker that is never awaited inside the
/// loop, so freezing is the only commit work on the ingest thread. An
/// idle arm (the same loop, no persistence) alternates with the
/// committing arm so both see the same machine; each keeps its best of
/// [`ALWAYS_ON_RUNS`]. The committing arm must keep at least 70 % of the
/// idle arm's rate, and its worst freeze must stall ingest for at most
/// 25 ms. The bounds describe optimized builds.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing bounds describe optimized builds")]
fn background_commits_keep_ingest_near_its_idle_rate() {
    let _serial = serial();
    let challenge = LanlGenerator::new(LanlConfig::small()).generate();
    let fresh_engine = || {
        EngineBuilder::lanl()
            .metrics(Arc::new(MetricsRegistry::disabled()))
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .expect("valid config")
    };
    let mut idle_secs = f64::INFINITY;
    let mut committing_secs = f64::INFINITY;
    let mut stall_ms = f64::INFINITY;
    for _ in 0..ALWAYS_ON_RUNS {
        let mut engine = fresh_engine();
        let started = Instant::now();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
        }
        idle_secs = idle_secs.min(started.elapsed().as_secs_f64());

        let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), LifecycleConfig::default())
            .expect("create mem store");
        let store = Persistence::new(dir, SnapshotPolicy::default().background());
        let mut engine = fresh_engine();
        let mut max_stall_ms = 0.0f64;
        let started = Instant::now();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
            let freeze = Instant::now();
            let handle = store.commit(&engine).expect("freeze");
            max_stall_ms = max_stall_ms.max(freeze.elapsed().as_secs_f64() * 1e3);
            drop(handle); // durability is awaited once, outside the timed loop
        }
        committing_secs = committing_secs.min(started.elapsed().as_secs_f64());
        store.drain().expect("every queued commit lands");
        stall_ms = stall_ms.min(max_stall_ms);
    }
    let ratio = idle_secs / committing_secs;
    eprintln!("ingest under background commits: {ratio:.3} of idle, worst freeze {stall_ms:.3} ms");
    assert!(ratio >= 0.70, "ingest kept {ratio:.3} of its idle rate under background commits");
    assert!(stall_ms <= 25.0, "worst freeze stalled ingest for {stall_ms:.3} ms");
}
