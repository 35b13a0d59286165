//! The snapshot lifecycle manager: a daily cycle against a manifest-driven
//! [`StoreDir`] with automatic compaction and retention GC, driven
//! through the [`Persistence`] facade.
//!
//! The shape of a long-running deployment:
//!
//! 1. `StoreDir::open_or_create` owns a snapshot directory (a small
//!    CRC-protected `MANIFEST` records the `full + N segments` chain) and
//!    `Persistence::new` wraps it with a `SnapshotPolicy`;
//! 2. after each day's `ingest_day`, `Persistence::commit` writes a full
//!    block (first run) or an O(day) segment — and when the configured
//!    `CompactionTrigger` fires, folds the whole chain back into one full
//!    block, pruning contact indexes past `retain_days` (their counters
//!    stay: the full block is the source of truth);
//! 3. on restart, `StoreDir::open` validates the manifest, quarantines any
//!    crash residue, and `Persistence::restore` reads the chain back in
//!    O(current state) — however long the service has been running — with
//!    bit-identical continuation.
//!
//! The storage medium is pluggable: the same lifecycle runs over a local
//! directory (`StoreDir::open_or_create`, shown here) or an in-memory
//! store (`MemBackend` through `StoreDir::open_or_create_boxed`).
//!
//! Run with: `cargo run --release --example snapshot_lifecycle`

use earlybird::engine::{
    CollectedAlerts, CompactionTrigger, DayBatch, EngineBuilder, LifecycleConfig, Persistence,
    RetentionPolicy, SnapshotPolicy, StoreDir,
};
use earlybird::logmodel::Day;
use earlybird::store::BlockKind;
use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
use std::sync::Arc;

fn main() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let dataset = &challenge.dataset;
    let split = dataset.meta.bootstrap_days as usize + 5; // the process "dies" here
    let root = std::env::temp_dir().join("earlybird-example-store");
    let _ = std::fs::remove_dir_all(&root);

    // Fold the whole chain into one full block whenever it exceeds 4
    // segments; keep the newest 2 days investigable through a compaction
    // (older days keep their counters in the full block, only their
    // contact indexes drop).
    let lifecycle = LifecycleConfig {
        compaction: CompactionTrigger { max_segments: Some(4) },
        retention: RetentionPolicy { retain_days: Some(2) },
    };

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

    // ---- Incarnation #1: the daily cycle through the facade. -----------
    {
        let dir = StoreDir::open_or_create(&root, lifecycle).expect("store dir");
        let store = Persistence::new(dir, SnapshotPolicy::default());
        let mut engine = EngineBuilder::lanl()
            .auto_investigate(true)
            .build(Arc::clone(&dataset.domains), dataset.meta.clone())
            .expect("valid config");
        for day in &dataset.days[..split] {
            engine.ingest_day(DayBatch::Dns(day));
            let outcome = store.commit(&engine).expect("freeze").wait().expect("daily persist");
            match outcome.block.kind {
                BlockKind::Full => println!(
                    "day {:>2}: full snapshot, {} bytes",
                    day.day.index(),
                    outcome.block.bytes
                ),
                BlockKind::DaySegment => {
                    // One guard for both reads: `store()` locks the
                    // StoreDir, and a second lock while the first guard's
                    // temporary is still alive would self-deadlock.
                    let dir = store.store();
                    println!(
                        "day {:>2}: segment, {} bytes ({} segments, {} chain bytes)",
                        day.day.index(),
                        outcome.block.bytes,
                        dir.segment_count(),
                        dir.chain_bytes()
                    );
                }
            }
            if let Some(c) = outcome.compaction {
                println!(
                    "        compaction: {} segments folded, {} -> {} bytes, {} indexes pruned",
                    c.segments_folded, c.bytes_before, c.bytes_after, c.days_pruned
                );
            }
        }
        // Engine dropped here: the "crash". Only the directory survives.
    }

    // ---- Incarnation #2: cold restart from the managed directory. ------
    let dir = StoreDir::open(&root, lifecycle).expect("reopen store dir");
    println!(
        "reopened: generation {}, {} chain files, {} quarantined",
        dir.generation(),
        dir.entries().len(),
        dir.quarantined().len()
    );
    // A full block plus at most `max_segments` segments.
    assert!(dir.entries().len() <= 5, "compaction keeps the chain bounded regardless of uptime");
    let restarted_alerts = CollectedAlerts::default();
    let store = Persistence::new(dir, SnapshotPolicy::default());
    let mut engine = store
        .restore(EngineBuilder::lanl().auto_investigate(true).alert_log(restarted_alerts.clone()))
        .expect("chain restores");
    println!(
        "restored: {} days of counters, {} investigable indexes, {} profiled domains",
        engine.reports().count(),
        engine.days().count(),
        engine.history().len()
    );

    // At-least-once replay of the day in flight at the crash, then finish.
    let replay = engine.ingest_day(DayBatch::Dns(&dataset.days[split - 1]));
    assert!(replay.duplicate, "covered day absorbed as a replay");
    for day in &dataset.days[split..] {
        engine.ingest_day(DayBatch::Dns(day));
    }

    // ---- The restart (and every compaction) was invisible. --------------
    let split_day = Day::new(split as u32);
    let expected: Vec<_> =
        reference_alerts.snapshot().into_iter().filter(|a| a.day >= split_day).collect();
    let actual = restarted_alerts.snapshot();
    assert_eq!(actual, expected, "post-restart alert stream must be bit-identical");
    println!(
        "post-restart alerts: {} (sequences {:?}..{:?}) — bit-identical to the uninterrupted run",
        actual.len(),
        actual.first().map(|a| a.sequence),
        actual.last().map(|a| a.sequence),
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&root);
    println!("snapshot lifecycle OK: compaction + retention GC verified");
}
