//! The unified streaming facade over the DSN'15 pipeline: one
//! ingest → detect → alert API.
//!
//! The paper's operational loop (§III-E) is a single daily cycle —
//! normalize, reduce, profile, extract rare destinations, detect C&C
//! communication, expand by belief propagation — yet the lower-level crates
//! expose it as several entry points that every caller must re-assemble by
//! hand. [`Engine`] owns that choreography:
//!
//! * [`EngineBuilder`] unifies the scattered knobs (pipeline configuration,
//!   C&C model, similarity scorer, belief-propagation limits, WHOIS
//!   registry and defaults, SOC hint seeds, parallelism, alert sinks) into
//!   one validated [`EngineConfig`].
//! * [`Engine::begin_day`] opens a streaming [`DayIngest`] handle — the
//!   one way a day is ingested: push raw log lines
//!   ([`DayIngest::push_lines`]) or parsed records in chunks of any size —
//!   parsing and reduction fan out across the engine's
//!   [`EngineBuilder::parallelism`] workers while memory stays bounded by
//!   the chunk size — then [`DayIngest::finish`] runs the detection tail,
//!   scoring rare domains on the same workers, and returns a typed
//!   [`DayReport`] with per-stage counters. [`DayBatch`] +
//!   [`Engine::ingest_day`] push a whole parsed day as one span.
//! * Typed [`Alert`]s flow through pluggable [`AlertSink`]s (collecting,
//!   JSON-lines, callback) in a deterministic order.
//! * [`Engine::investigate`] runs belief propagation for any hint mode
//!   (SOC hint hosts, seed domains, today's C&C detections) on any retained
//!   day, and [`Engine::train_enterprise`] fits the §IV-C/§IV-D regression
//!   models from ingested history, upgrading the engine in place.
//! * [`Engine::freeze`] / [`Engine::freeze_day`] capture the full mutable
//!   state (profiles, histories, retained indexes, trained models, alert
//!   sequencing) into an owned [`EngineSnapshot`] under a short critical
//!   section; [`EngineSnapshot::write_to`] serializes it — on any thread,
//!   while ingestion continues — to a versioned, self-checking store
//!   stream that cold-restarts with bit-identical continuation — see the
//!   `earlybird-store` crate.
//! * For a long-running service, the [`Persistence`] facade drives a
//!   manifest-managed [`StoreDir`] behind one [`SnapshotPolicy`]:
//!   automatic full-vs-segment selection, sync or background commits awaited
//!   through a [`CommitHandle`], automatic chain folding on a
//!   [`CompactionTrigger`] (whole-chain [`compact_store`] or bounded
//!   [`compact_store_tiered`]), retention GC past
//!   [`RetentionPolicy::retain_days`], and O(current state) restore via
//!   [`Persistence::restore`] no matter how long the service ran.
//!   Storage is pluggable through the [`ObjectStore`] trait —
//!   [`LocalFsBackend`] (byte-compatible with pre-trait directories),
//!   [`MemBackend`], or the S3-style [`S3LiteBackend`] with multipart
//!   staging and a conditional manifest swap. Raw byte streams without a
//!   managed directory read back through
//!   [`EngineBuilder::restore_stream`].
//! * Observability rides along the whole cycle: per-stage wall-time
//!   histograms (`engine_stage_micros{stage=parse|reduce|profile|cc|bp|
//!   checkpoint|restore|compact}`), ingest counters, and checkpoint
//!   bandwidth flow into a [`MetricsRegistry`] attached via
//!   [`EngineBuilder::metrics`] (or a private one reachable through
//!   [`Engine::metrics`]) — side-band only, never affecting results.
//!
//! # Example
//!
//! ```
//! use earlybird_engine::{DayBatch, EngineBuilder};
//! use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};
//! use std::sync::Arc;
//!
//! let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
//! let mut engine = EngineBuilder::lanl()
//!     .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
//!     .unwrap();
//! for day in &challenge.dataset.days[..30] {
//!     let report = engine.ingest_day(DayBatch::Dns(day));
//!     assert_eq!(report.day, day.day);
//! }
//! assert!(engine.days().count() > 0, "operation days retained");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod batch;
mod builder;
mod core_loop;
mod ingest;
mod metrics;
mod persist;
mod persistence;
mod report;
mod train;

pub use alert::{
    Alert, AlertLog, AlertLogSink, AlertSink, CallbackSink, CollectedAlerts, CollectingSink,
    JsonLinesSink, Verdict, WriteErrors,
};
pub use batch::DayBatch;
pub use builder::{EngineBuilder, EngineConfig, EngineError};
pub use core_loop::{Engine, Investigation, SeedSpec};
pub use earlybird_obs::{MetricsRegistry, MetricsSnapshot};
pub use earlybird_store::{
    validate_scope_name, BlockKind, CheckpointMeta, CompactionReport, CompactionTrigger,
    FaultInjector, FaultedStore, LifecycleConfig, LocalFsBackend, MemBackend, ObjectStore,
    RetentionPolicy, S3LiteBackend, StoreDir, StoreError, StoreResult,
};
pub use ingest::{DayIngest, DayState, IngestSource};
pub use persist::{compact_store, compact_store_tiered, EngineSnapshot};
pub use persistence::{CommitHandle, CommitMode, CommitOutcome, Persistence, SnapshotPolicy};
pub use report::{CcCandidate, DayReport, InvestigationReport, StageCounters, TrainingReport};
