//! Durability & crash recovery through the [`Persistence`] facade: run
//! the daily cycle with commits on the background worker, kill the
//! process, and restart without losing the months of accumulated baseline
//! the detector depends on.
//!
//! The shape of a production deployment:
//!
//! 1. `Persistence::new(dir, SnapshotPolicy::default().background())`
//!    owns the store and a background commit worker;
//! 2. after each day's `ingest_day`, `Persistence::commit` freezes the
//!    engine's persistable state under a short critical section and
//!    returns a `CommitHandle` immediately — serialization and the store
//!    commit run behind it while the next day's ingest proceeds, and
//!    `CommitHandle::wait` is the durability ack;
//! 3. on restart, `Persistence::restore` reads the chain back and the
//!    service resumes **bit-identically** — same reports, same alerts,
//!    same alert sequence numbers — as if it had never died. Re-feeding an
//!    already-covered day is absorbed by the duplicate-day replay guard
//!    (at-least-once ingestion, no double alerts).
//!
//! Run with: `cargo run --release --example checkpoint_restart`

use earlybird::engine::{
    CollectedAlerts, DayBatch, EngineBuilder, LifecycleConfig, Persistence, SnapshotPolicy,
    StoreDir,
};
use earlybird::logmodel::Day;
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use std::sync::Arc;

fn main() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let dataset = &challenge.dataset;
    let boot = dataset.meta.bootstrap_days as usize;
    let split = boot + 3; // the process "dies" after this many days
    let root = std::env::temp_dir().join("earlybird-example-restart");
    let _ = std::fs::remove_dir_all(&root);

    // ---- Reference: one engine that never restarts. --------------------
    let reference_alerts = CollectedAlerts::default();
    let mut reference = EngineBuilder::lanl()
        .auto_investigate(true)
        .alert_log(reference_alerts.clone())
        .build(Arc::clone(&dataset.domains), dataset.meta.clone())
        .expect("valid config");
    for day in &dataset.days {
        reference.ingest_day(DayBatch::Dns(day));
    }

    // ---- Incarnation #1: bootstrap, then background daily commits. -----
    {
        let dir = StoreDir::open_or_create(&root, LifecycleConfig::default()).expect("store dir");
        let store = Persistence::new(dir, SnapshotPolicy::default().background());
        let mut engine = EngineBuilder::lanl()
            .auto_investigate(true)
            .build(Arc::clone(&dataset.domains), dataset.meta.clone())
            .expect("valid config");
        for day in &dataset.days[..boot] {
            engine.ingest_day(DayBatch::Dns(day));
        }
        let full = store.commit(&engine).expect("freeze").wait().expect("full checkpoint commits");
        println!(
            "full snapshot: {} days, {} retained indexes, {} bytes (crc {:#010x})",
            full.block.days, full.block.retained_days, full.block.bytes, full.block.checksum
        );

        // Daily cycle: `commit` returns as soon as the day's state is
        // frozen, so the previous handle is awaited only after the *next*
        // day has been ingested — serialization always overlaps ingest.
        let mut inflight: Option<(Day, earlybird::engine::CommitHandle)> = None;
        for day in &dataset.days[boot..split] {
            engine.ingest_day(DayBatch::Dns(day));
            if let Some((d, handle)) = inflight.take() {
                let outcome = handle.wait().expect("segment durable");
                println!(
                    "  day segment {d:?}: {} bytes, durable at generation {}",
                    outcome.block.bytes, outcome.generation
                );
            }
            inflight = Some((day.day, store.commit(&engine).expect("freeze")));
        }
        if let Some((d, handle)) = inflight {
            let outcome = handle.wait().expect("segment durable");
            println!(
                "  day segment {d:?}: {} bytes, durable at generation {}",
                outcome.block.bytes, outcome.generation
            );
        }
        // Engine dropped here: the "crash". Only the directory survives.
    }

    // ---- Incarnation #2: cold restart from the store directory. --------
    let restarted_alerts = CollectedAlerts::default();
    let dir = StoreDir::open(&root, LifecycleConfig::default()).expect("reopen store dir");
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let mut engine = store
        .restore(EngineBuilder::lanl().auto_investigate(true).alert_log(restarted_alerts.clone()))
        .expect("chain restores");
    println!(
        "restored: {} operation days retained, {} profiled domains",
        engine.days().count(),
        engine.history().len()
    );

    // At-least-once replay of the day that was in flight when we died.
    let replay = engine.ingest_day(DayBatch::Dns(&dataset.days[split - 1]));
    assert!(replay.duplicate, "covered day absorbed as a replay");

    // Continue the stream to the end of the window.
    for day in &dataset.days[split..] {
        engine.ingest_day(DayBatch::Dns(day));
    }

    // ---- The restart was invisible. ------------------------------------
    let split_day = Day::new(split as u32);
    let expected: Vec<_> =
        reference_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
    let actual = restarted_alerts.snapshot();
    assert_eq!(actual, expected, "post-restart alert stream must be bit-identical");
    assert_eq!(
        engine.days().collect::<Vec<_>>(),
        reference.days().collect::<Vec<_>>(),
        "retained day set must match"
    );
    println!(
        "post-restart alerts: {} (sequences {:?}..{:?}) — bit-identical to the uninterrupted run",
        actual.len(),
        actual.first().map(|a| a.sequence),
        actual.last().map(|a| a.sequence),
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&root);
    println!("cold restart OK: durability layer verified");
}
