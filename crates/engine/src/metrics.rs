//! Cached metric handles for one engine.
//!
//! The engine registers every series it will ever touch once, at
//! construction, so the daily cycle's instrumentation cost is a handful of
//! relaxed atomic increments — no lock, no lookup, no allocation on the
//! parse/reduce hot path. The registry itself is shared (the serve daemon
//! hands every tenant the same one, labeled per tenant) and is
//! snapshot-readable while the engine runs.

use earlybird_logmodel::TypedInterner;
use earlybird_obs::{Counter, Gauge, MetricsRegistry, StageTimer};
use std::sync::Arc;

/// The data-shape series of one interner table
/// (`engine_interner_*{table=...}`): the variables that explain a slow
/// restore or a large tenant.
#[derive(Clone, Debug)]
pub(crate) struct InternerShape {
    symbols: Gauge,
    bytes: Gauge,
}

impl InternerShape {
    /// Brings the series up to the table's current state.
    pub(crate) fn record<T>(&self, table: &TypedInterner<T>) {
        self.symbols.set(table.len() as i64);
        self.bytes.set(table.byte_len() as i64);
    }
}

/// One engine's handles into its [`MetricsRegistry`]: per-stage wall-time
/// timers on `engine_stage_micros{stage=...}` plus the ingest counters.
/// Timing is observability, never state — nothing here feeds back into
/// detection or into snapshot bytes.
#[derive(Clone, Debug)]
pub(crate) struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    /// Raw-line parsing + sequential host-id assignment.
    pub(crate) parse: StageTimer,
    /// Chunked reduction (normalization, folding, per-chunk reduce, absorb);
    /// the four `reduce_*` stages below break it down.
    pub(crate) reduce: StageTimer,
    /// Sequential per-span name work, observed twice per push: admission
    /// (verdicts for newly interned names), then the record-order fold
    /// warm-up (which for proxy spans follows normalization).
    pub(crate) reduce_names: StageTimer,
    /// Parallel proxy normalization (DHCP attribution, UTC, IP-literal
    /// drop) plus the in-order merge of its counters.
    pub(crate) reduce_normalize: StageTimer,
    /// Parallel per-chunk reduction.
    pub(crate) reduce_chunk: StageTimer,
    /// Sequential in-order absorb of each chunk's contacts and counters.
    pub(crate) reduce_absorb: StageTimer,
    /// Day finalization, observed twice per finished day: the seal (index
    /// finalize + rare sieve) before detection, then the history fold
    /// after it.
    pub(crate) profile: StageTimer,
    /// C&C scoring over the day's rare domains.
    pub(crate) cc: StageTimer,
    /// Belief-propagation expansion.
    pub(crate) bp: StageTimer,
    /// One checkpoint block write (full or segment).
    pub(crate) checkpoint: StageTimer,
    /// One snapshot-stream restore.
    pub(crate) restore: StageTimer,
    /// A restore's read of the chain into flat tables: framing, CRC, every
    /// section decoded (retained days included) and checked.
    pub(crate) restore_fold: StageTimer,
    /// A restore's thaw of the four interner tables plus the host map.
    pub(crate) restore_interners: StageTimer,
    /// A restore's thaw of the destination and user-agent histories.
    pub(crate) restore_history: StageTimer,
    /// One store compaction pass.
    pub(crate) compact: StageTimer,
    /// Compaction's fold of the chain into one full snapshot (plus
    /// retention pruning).
    pub(crate) compact_fold: StageTimer,
    /// Compaction's encoding of the folded full block.
    pub(crate) compact_encode: StageTimer,
    /// The short critical section of one `Engine::freeze` — the only part
    /// of a checkpoint that excludes ingestion. Its own series
    /// (`checkpoint_stall_micros`), since this is exactly the pause an
    /// always-on deployment watches.
    pub(crate) checkpoint_stall: StageTimer,
    /// Size of the raw-domain, folded-domain, user-agent and path tables,
    /// set at each day finish and once after a restore.
    pub(crate) raw_table: InternerShape,
    pub(crate) folded_table: InternerShape,
    pub(crate) ua_table: InternerShape,
    pub(crate) path_table: InternerShape,
    /// Raw records accepted into open days (replays excluded).
    pub(crate) records: Counter,
    /// Unparseable raw log lines.
    pub(crate) parse_errors: Counter,
    /// Bytes of checkpoint blocks written.
    pub(crate) checkpoint_bytes: Counter,
}

impl EngineMetrics {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, labels: &[(String, String)]) -> Self {
        let extra: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let labeled = |key: &'static str, value: &'static str| {
            let mut l: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 1);
            l.push((key, value));
            l.extend(extra.iter().copied());
            l
        };
        let stage = |name: &'static str| {
            registry.timer(
                "engine_stage_micros",
                "Wall time per engine pipeline stage in microseconds",
                &labeled("stage", name),
            )
        };
        let table = |name: &'static str| {
            let l = labeled("table", name);
            InternerShape {
                symbols: registry.gauge(
                    "engine_interner_symbols",
                    "Distinct strings held by an interner table",
                    &l,
                ),
                bytes: registry.gauge(
                    "engine_interner_bytes",
                    "Bytes an interner table holds: string bytes, offsets and hash index",
                    &l,
                ),
            }
        };
        EngineMetrics {
            raw_table: table("raw"),
            folded_table: table("folded"),
            ua_table: table("ua"),
            path_table: table("path"),
            parse: stage("parse"),
            reduce: stage("reduce"),
            reduce_names: stage("reduce_names"),
            reduce_normalize: stage("reduce_normalize"),
            reduce_chunk: stage("reduce_chunk"),
            reduce_absorb: stage("reduce_absorb"),
            profile: stage("profile"),
            cc: stage("cc"),
            bp: stage("bp"),
            checkpoint: stage("checkpoint"),
            restore: stage("restore"),
            restore_fold: stage("restore_fold"),
            restore_interners: stage("restore_interners"),
            restore_history: stage("restore_history"),
            compact: stage("compact"),
            compact_fold: stage("compact_fold"),
            compact_encode: stage("compact_encode"),
            checkpoint_stall: registry.timer(
                "checkpoint_stall_micros",
                "Wall time ingestion is excluded while a snapshot freezes",
                &extra,
            ),
            records: registry.counter(
                "engine_records_total",
                "Raw records accepted into open days (duplicate-day replays excluded)",
                &extra,
            ),
            parse_errors: registry.counter(
                "engine_parse_errors_total",
                "Raw log lines that failed to parse",
                &extra,
            ),
            checkpoint_bytes: registry.counter(
                "engine_checkpoint_bytes_total",
                "Bytes of checkpoint blocks written (full and segment)",
                &extra,
            ),
            registry,
        }
    }

    /// The registry every handle records into.
    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}
