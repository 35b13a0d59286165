//! The store holds exactly the engine's state, whatever the schedule.
//!
//! Random schedules of chunked day pushes, enterprise training, sync
//! commits, compactions and restarts run against one committing engine and
//! a store-less twin that gets the same pushes and trainings but never
//! restarts. Two checks:
//!
//! * after every commit and every compaction, an engine restored from the
//!   store freezes to the twin's bytes (as of the last commit);
//! * every day a restarted engine ingests reports exactly what the
//!   uninterrupted twin reported for it, alerts and their sequence numbers
//!   included.
//!
//! A restart replays the steps the store does not hold yet (the days and
//! trainings since the last commit), the way a crashed deployment re-pushes
//! its in-flight days.

use earlybird::engine::{
    CompactionTrigger, DayReport, Engine, EngineBuilder, IngestSource, LifecycleConfig, MemBackend,
    Persistence, SnapshotPolicy, StoreDir,
};
use earlybird::logmodel::Day;
use earlybird::synthgen::ac::{AcConfig, AcGenerator, AcWorld};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn world() -> &'static AcWorld {
    static WORLD: OnceLock<AcWorld> = OnceLock::new();
    WORLD.get_or_init(|| AcGenerator::new(AcConfig::tiny()).generate())
}

/// One builder for every engine of a case, so machine-local knobs (which
/// a restore takes from the builder) agree too. Two workers from the
/// first record on, so pushes take the parallel paths.
fn builder(world: &AcWorld) -> EngineBuilder {
    EngineBuilder::enterprise()
        .whois(world.intel.whois.clone())
        .proxy_interners(Arc::clone(&world.dataset.uas), Arc::clone(&world.dataset.paths))
        .auto_investigate(true)
        .parallelism(2)
        .parallel_threshold(1)
        .ingest_chunk_records(64)
}

fn build(world: &AcWorld) -> Engine {
    builder(world)
        .build(Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
        .expect("valid config")
}

fn restore(world: &AcWorld, persistence: &Persistence) -> Engine {
    persistence
        .restore_with_domains(Arc::clone(&world.dataset.domains), builder(world))
        .expect("store restores")
}

fn full_freeze(engine: &Engine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.freeze().write_to(&mut bytes).expect("freeze writes");
    bytes
}

/// A step an engine replays after a restart.
#[derive(Clone, Debug)]
enum Step {
    /// Day `k` of the world, pushed in spans of these lengths (the rest
    /// of the day goes last).
    Ingest(usize, Vec<usize>),
    /// Enterprise training up to this day.
    Train(Day),
}

fn ingest(world: &AcWorld, engine: &mut Engine, k: usize, spans: &[usize]) -> DayReport {
    let day = &world.dataset.days[k];
    let mut open = engine.begin_day(day.day, IngestSource::Proxy { dhcp: &world.dataset.dhcp });
    let mut rest = &day.records[..];
    for &len in spans {
        let (span, remaining) = rest.split_at(len.min(rest.len()));
        open.push_proxy_records(span);
        rest = remaining;
    }
    open.push_proxy_records(rest);
    open.finish()
}

/// Trains on both sides alike; a world too young to train fails alike.
fn train(world: &AcWorld, engine: &mut Engine, end: Day) -> bool {
    engine.train_enterprise(end, &world.intel.vt, 0.4, 0.4).is_ok()
}

fn apply(world: &AcWorld, engine: &mut Engine, step: &Step) -> Option<DayReport> {
    match step {
        Step::Ingest(k, spans) => Some(ingest(world, engine, *k, spans)),
        Step::Train(end) => {
            train(world, engine, *end);
            None
        }
    }
}

/// Everything a report says about its day, wall time aside.
fn assert_same_report(got: &DayReport, want: &DayReport, context: &str) {
    assert_eq!(got.day, want.day, "{context}: day");
    assert_eq!(got.bootstrap, want.bootstrap, "{context}: bootstrap flag");
    assert_eq!(got.duplicate, want.duplicate, "{context}: duplicate flag");
    assert!(got.stages.deterministic_eq(&want.stages), "{context}: stage counters");
    assert_eq!(got.proxy_counts, want.proxy_counts, "{context}: proxy counts");
    assert_eq!(got.norm_counts, want.norm_counts, "{context}: normalization counts");
    assert_eq!(got.cc_candidates, want.cc_candidates, "{context}: C&C candidates");
    assert_eq!(got.alerts, want.alerts, "{context}: alerts");
    assert_eq!(got.outcome, want.outcome, "{context}: BP outcome");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each step is `(kind, spans)`: kinds 0–4 ingest the next day in
    /// `spans`, 5 trains, 6–7 commit, 8 compacts and 9 restarts.
    #[test]
    fn the_store_holds_the_engine_state_under_any_schedule(
        steps in proptest::collection::vec(
            (0u8..10, proptest::collection::vec(1usize..400, 0..4)),
            8..24,
        ),
        max_segments in 2usize..6,
    ) {
        let world = world();
        let lifecycle = LifecycleConfig {
            compaction: CompactionTrigger { max_segments: Some(max_segments) },
            ..LifecycleConfig::default()
        };
        let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), lifecycle)
            .expect("store creates");
        let persistence = Persistence::new(dir, SnapshotPolicy::default());
        let mut engine = build(world);
        let mut twin = build(world);

        // All but the last bootstrap day, committed, so the schedule's
        // days reach the operation window (and training) quickly.
        let mut next = world.dataset.meta.bootstrap_days as usize - 1;
        for k in 0..next {
            ingest(world, &mut engine, k, &[]);
            ingest(world, &mut twin, k, &[]);
        }
        persistence.commit(&engine).and_then(|h| h.wait()).expect("prefix commits");
        let mut committed = full_freeze(&twin);
        let mut uncommitted: Vec<Step> = Vec::new();
        let mut twin_reports: Vec<Option<DayReport>> = vec![None; world.dataset.days.len()];

        for (i, (kind, spans)) in steps.into_iter().enumerate() {
            let context = format!("step {i} (kind {kind})");
            match kind {
                0..=4 if next < world.dataset.days.len() => {
                    let step = Step::Ingest(next, spans);
                    let got = apply(world, &mut engine, &step).expect("an ingest reports");
                    let want = apply(world, &mut twin, &step).expect("an ingest reports");
                    assert_same_report(&got, &want, &context);
                    twin_reports[next] = Some(want);
                    uncommitted.push(step);
                    next += 1;
                }
                5 => {
                    let end = world.dataset.days[next - 1].day;
                    let ok = train(world, &mut engine, end);
                    prop_assert_eq!(ok, train(world, &mut twin, end), "{}: training", context);
                    uncommitted.push(Step::Train(end));
                }
                6 | 7 => {
                    persistence.commit(&engine).and_then(|h| h.wait()).expect("commit");
                    committed = full_freeze(&twin);
                    uncommitted.clear();
                    let restored = full_freeze(&restore(world, &persistence));
                    prop_assert!(restored == committed, "{}: restored after commit", context);
                }
                8 => {
                    persistence.compact().expect("compaction");
                    let restored = full_freeze(&restore(world, &persistence));
                    prop_assert!(restored == committed, "{}: restored after compaction", context);
                }
                9 => {
                    engine = restore(world, &persistence);
                    for step in &uncommitted {
                        if let Some(got) = apply(world, &mut engine, step) {
                            let Step::Ingest(k, _) = step else { unreachable!() };
                            let want = twin_reports[*k].as_ref().expect("the twin ingested it");
                            assert_same_report(&got, want, &format!("{context}: re-push"));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}
