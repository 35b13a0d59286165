//! The engine's state codec: freeze, encode and restore.
//!
//! The paper's detector only works because it accumulates months of history
//! — new-domain profiles, rare-UA host counts, per-day contact indexes,
//! trained regression weights (§III-E, §IV). This module makes that state
//! survive a process restart with **bit-identical continuation**: ingest
//! days `1..N`, freeze and commit a snapshot, restore into a fresh engine,
//! ingest days `N+1..M` — every report, alert, and alert sequence number
//! matches an uninterrupted run exactly.
//!
//! # Freeze, then write
//!
//! Persistence is split into two halves so the engine never pauses for the
//! duration of a store commit:
//!
//! * [`Engine::freeze`] / [`Engine::freeze_day`] capture the persistable
//!   state into an owned [`EngineSnapshot`] under a **short critical
//!   section** (an interner tail is one copy of the bytes interned since
//!   the last block plus their offsets, a history tail a slice copy;
//!   retained day indexes ride as `Arc<DayProduct>` clones). Its wall time
//!   is the `checkpoint_stall_micros` series — the only pause an always-on
//!   deployment sees.
//! * [`EngineSnapshot::write_to`] serializes the frozen view as one
//!   self-checking block — on the calling thread or a background worker —
//!   while ingestion continues. The bytes are identical to what a
//!   synchronous checkpoint of the quiesced engine would have written.
//!
//! Most callers drive both halves through the [`crate::Persistence`]
//! facade, the lifecycle module: it owns the [`crate::StoreDir`], a
//! [`crate::SnapshotPolicy`], the (optional) background commit worker and
//! the compaction pass. Raw byte streams without a managed directory —
//! fixtures, pipes, in-memory buffers — write through
//! [`Engine::freeze`] + [`EngineSnapshot::write_to`] and read back through
//! [`EngineBuilder::restore_stream`] /
//! [`EngineBuilder::restore_stream_with_domains`].
//!
//! # Stream layout
//!
//! A store stream is one **full** block followed by any number of
//! **day-segment** blocks (see `earlybird_store::frame`):
//!
//! * A full block carries configuration (including trained models and the
//!   WHOIS registry), dataset metadata, all four interners, the raw-line
//!   host map, both cross-day histories, every stored day report, every
//!   retained contact index, and the alert sequence counter.
//! * A day segment carries only the state added since the previous block —
//!   interner tails, history-log tails, the new days' reports and indexes —
//!   so a daily cycle persists O(day), not O(history).
//!
//! # One chain reader
//!
//! One function reads a stream: `ChainFold::read` walks the blocks in
//! order, checks each one and appends its tails onto flat tables — one
//! string arena per interner, the host addresses, both history logs —
//! beside the decoded day reports and retained days (each decoded straight
//! into the sorted columns a live `DayIndex` holds, so a restored day is
//! indistinguishable from, and re-encodes exactly like, a live one). Its
//! two callers differ only in what they do with the fold:
//!
//! * [`EngineBuilder::restore_stream`] (and [`Persistence::restore`] over a
//!   managed chain) *thaws* it into a fresh engine, once per table: an
//!   empty interner adopts its folded arena by move and builds its index
//!   over it, the host map and histories build their lookup sets, and the
//!   days move in. Restored symbol numbering is identical to the original
//!   interners', so records produced against the original dataset (or a
//!   deterministic regeneration of it) remain valid. The
//!   `engine_stage_micros{stage="restore_fold"|"restore_interners"|"restore_history"}`
//!   spans say where a restore's time went.
//! * Compaction (`EngineSnapshot::fold_chain`) checks the tables for
//!   repeats and hands the fold, as it stands, to
//!   [`EngineSnapshot::write_to`] as one full snapshot. No engine is built.
//!
//! A chain that compaction refuses, a restore into fresh interners refuses
//! with the same error, and the other way round: the per-block checks are
//! the same code, and the thaw refuses a repeated string, address or
//! history entry with the error compaction's repeat check raises, table by
//! table in the same order.
//!
//! [`Persistence::restore`]: crate::Persistence::restore
//!
//! # Crash recovery
//!
//! Restoring and re-pushing the day that was in flight when the process
//! died gives at-least-once ingestion with no double counting: days the
//! snapshot already covers are absorbed by the engine's duplicate-day
//! replay guard (a no-op returning the stored counters), and the partial
//! day simply ingests fresh.
//!
//! Machine-local performance knobs (`parallelism`, `parallel_threshold`,
//! `ingest_chunk_records`) are deliberately *not* restored — they come from
//! the [`EngineBuilder`] so a snapshot can move between machines; none of
//! them affects results. Compaction copies the Config payload verbatim, so
//! a compacted block keeps the knobs its chain was written with.

use crate::alert::CollectedAlerts;
use crate::builder::{validate_config, EngineBuilder, EngineConfig, PipelineConfig};
use crate::core_loop::{prune_oldest, DayProduct, Engine};
use crate::metrics::EngineMetrics;
use crate::report::{DayReport, StageCounters};
use earlybird_core::{BpConfig, CcModel, SimScorer};
use earlybird_logmodel::{
    DatasetMeta, Day, DomainInterner, DomainSym, HostId, Ipv4, PathInterner, StrArena,
    TypedInterner, UaInterner, UaSym,
};
use earlybird_pipeline::{DomainHistory, UaHistory};
use earlybird_store::{
    sections, BlockKind, BlockReader, BlockWriter, CheckpointMeta, Decoder, Encoder, SectionTag,
    StoreError, StoreResult, FORMAT_VERSION,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Watermarks of the state already persisted to the current store stream;
/// `checkpoint_day` writes everything beyond them. All the underlying
/// collections are append-only, which is what makes the delta well-defined.
#[derive(Clone, Debug, Default)]
pub(crate) struct PersistCursor {
    raw: usize,
    folded: usize,
    uas: usize,
    paths: usize,
    hosts: usize,
    history: usize,
    ua_pairs: usize,
    days: BTreeSet<Day>,
    /// Set by a configuration change (trained models, WHOIS defaults)
    /// since the last full freeze; segments carry no Config section, so
    /// [`crate::Persistence::commit`] freezes in full while it is set.
    config_changed: bool,
}

impl Engine {
    /// The persist-cursor lock. Checkpoints hold it for their whole write,
    /// so concurrent checkpoints serialize and each delta is well-defined;
    /// the engine's read paths never touch it.
    fn lock_cursor(&self) -> std::sync::MutexGuard<'_, PersistCursor> {
        self.persist_cursor.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks the configuration as changed since the last full freeze.
    pub(crate) fn mark_config_changed(&mut self) {
        let cursor = self.persist_cursor.get_mut();
        cursor.unwrap_or_else(std::sync::PoisonError::into_inner).config_changed = true;
    }

    /// Whether the configuration changed since the last full freeze (or
    /// restore): a day segment would not carry the change.
    pub(crate) fn config_changed(&self) -> bool {
        self.lock_cursor().config_changed
    }

    fn current_cursor(&self) -> PersistCursor {
        PersistCursor {
            raw: self.fold.raw_interner().len(),
            folded: self.fold.folded_interner().len(),
            uas: self.uas.len(),
            paths: self.paths.len(),
            hosts: self.line_hosts.len(),
            history: self.history.ordered().len(),
            ua_pairs: self.ua_history.pair_log().len(),
            days: self.reports.keys().copied().collect(),
            config_changed: false,
        }
    }

    /// Freezes the engine's complete persistable state — configuration
    /// (including any trained models), dataset metadata, interners, host
    /// map, histories, day reports, retained contact indexes, and the
    /// alert sequence counter — into an owned [`EngineSnapshot`] under a
    /// short critical section, and advances the incremental persist cursor
    /// past everything captured.
    ///
    /// The snapshot borrows nothing from the engine: serialization
    /// ([`EngineSnapshot::write_to`]) and the store commit can run on a
    /// background thread while ingestion continues. The cursor advance is
    /// *eager* — the engine assumes the frozen bytes will reach their
    /// stream. A snapshot that is dropped unwritten (or whose commit
    /// fails) therefore breaks the segment stream: the next delta would
    /// assume state the chain never received. The [`crate::Persistence`]
    /// facade enforces this by refusing further commits after a failure
    /// ([`StoreError::PersistencePoisoned`]); recover by restoring from
    /// the store.
    ///
    /// Takes `&self`: a freeze never blocks the engine's read paths
    /// ([`Engine::report`], [`Engine::investigate`], ...) on a shared
    /// engine — only ingestion (which needs `&mut self`) waits, and only
    /// for the critical section, whose wall time is recorded on the
    /// `checkpoint_stall_micros` series.
    pub fn freeze(&self) -> EngineSnapshot {
        let mut cursor = self.lock_cursor();
        let (snap, next) = self.freeze_locked(BlockKind::Full, &PersistCursor::default());
        *cursor = next;
        snap
    }

    /// [`Engine::freeze`] for the daily cycle: captures only the state
    /// added since the last freeze — interner tails, history-log tails,
    /// the new days' reports and indexes; O(day), not O(history) — as a
    /// day-segment snapshot, advancing the cursor past it. Freezing with
    /// no new days ingested yields a (tiny) empty segment, which restores
    /// as a no-op. A segment carries no configuration: to persist a
    /// trained model or new WHOIS defaults, freeze in full
    /// ([`Engine::freeze`]) and start a new stream with it — a stream
    /// holds one full snapshot. [`crate::Persistence::commit`] does this
    /// itself.
    ///
    /// # Errors
    ///
    /// A day ingested *behind* the newest already-persisted day is refused
    /// as [`StoreError::StaleSegment`] — appending its segment would
    /// produce a chain the restore path rejects; freeze a fresh full
    /// snapshot ([`Engine::freeze`]) to persist back-filled days. On error
    /// the cursor is untouched.
    pub fn freeze_day(&self) -> StoreResult<EngineSnapshot> {
        let mut cursor = self.lock_cursor();
        Self::check_segment_freshness(&cursor, &self.reports)?;
        let delta = cursor.clone();
        let (snap, next) = self.freeze_locked(BlockKind::DaySegment, &delta);
        // Only a full freeze persists the configuration.
        *cursor = PersistCursor { config_changed: delta.config_changed, ..next };
        Ok(snap)
    }

    /// Captures everything beyond `cursor` into an owned snapshot, plus
    /// the cursor value describing the captured watermarks. Does *not*
    /// advance the engine's cursor — callers holding the cursor lock
    /// decide when the advance happens (eager for [`Engine::freeze`] /
    /// [`Engine::freeze_day`]).
    fn freeze_locked(
        &self,
        kind: BlockKind,
        cursor: &PersistCursor,
    ) -> (EngineSnapshot, PersistCursor) {
        let _stall_span = self.metrics.checkpoint_stall.start();
        let (config_bytes, meta_bytes) = if kind == BlockKind::Full {
            let mut c = Encoder::new();
            write_config(&mut c, &self.cfg);
            let mut m = Encoder::new();
            sections::write_dataset_meta(&mut m, &self.meta);
            (Some(c.into_bytes()), Some(m.into_bytes()))
        } else {
            (None, None)
        };
        let raw = (cursor.raw, self.fold.raw_interner().tail(cursor.raw));
        let folded = (cursor.folded, self.fold.folded_interner().tail(cursor.folded));
        let uas = (cursor.uas, self.uas.tail(cursor.uas));
        let paths = (cursor.paths, self.paths.tail(cursor.paths));
        let mut ips = self.line_hosts.snapshot_ips();
        let hosts = (cursor.hosts, ips.split_off(cursor.hosts.min(ips.len())));
        let order = self.history.ordered();
        let history = (
            cursor.history,
            order.get(cursor.history..).unwrap_or(&[]).to_vec(),
            self.history.days_ingested(),
        );
        let log = self.ua_history.pair_log();
        let ua_history = (
            self.ua_history.rare_threshold(),
            cursor.ua_pairs,
            log.get(cursor.ua_pairs..).unwrap_or(&[]).to_vec(),
        );
        let reports: Vec<DayReport> = self
            .reports
            .iter()
            .filter(|(d, _)| !cursor.days.contains(d))
            .map(|(_, r)| r.clone())
            .collect();
        let products: Vec<Arc<DayProduct>> = self
            .products
            .iter()
            .filter(|(d, _)| !cursor.days.contains(d))
            .map(|(_, p)| Arc::clone(p))
            .collect();
        let next = PersistCursor {
            raw: raw.0 + raw.1.len(),
            folded: folded.0 + folded.1.len(),
            uas: uas.0 + uas.1.len(),
            paths: paths.0 + paths.1.len(),
            hosts: hosts.0 + hosts.1.len(),
            history: history.0 + history.1.len(),
            ua_pairs: ua_history.1 + ua_history.2.len(),
            days: self.reports.keys().copied().collect(),
            config_changed: false,
        };
        let snap = EngineSnapshot {
            kind,
            config_bytes,
            meta_bytes,
            raw,
            folded,
            uas,
            paths,
            hosts,
            history,
            ua_history,
            reports,
            products,
            sequence: self.sequence.load(Ordering::SeqCst),
            metrics: self.metrics.clone(),
        };
        (snap, next)
    }

    /// Rejects a segment that would persist a day older than the newest
    /// day already on the stream (see [`StoreError::StaleSegment`]).
    fn check_segment_freshness(
        cursor: &PersistCursor,
        reports: &std::collections::BTreeMap<Day, DayReport>,
    ) -> StoreResult<()> {
        let Some(&last) = cursor.days.iter().next_back() else {
            return Ok(());
        };
        for day in reports.keys() {
            if *day < last && !cursor.days.contains(day) {
                return Err(StoreError::StaleSegment {
                    day: day.index(),
                    last_persisted: last.index(),
                });
            }
        }
        Ok(())
    }
}

/// An engine's persistable state, frozen at one instant by
/// [`Engine::freeze`] / [`Engine::freeze_day`] into an owned value.
///
/// The snapshot borrows nothing from the engine, so it can move to a
/// background thread (`EngineSnapshot: Send`) and serialize while
/// ingestion continues. Freezing is cheap: interner and history tails are
/// flat copies of what was appended since the last block (a day's names
/// are kilobytes), and retained day indexes ride as `Arc<DayProduct>`
/// clones of the engine's own immutable products.
///
/// [`EngineSnapshot::write_to`] produces bytes identical to what a
/// synchronous checkpoint of the quiesced engine would have written —
/// background and sync commits restore bit-identically by construction.
pub struct EngineSnapshot {
    kind: BlockKind,
    /// Pre-encoded Config/Meta section payloads (full snapshots only) —
    /// encoded at freeze so the snapshot need not clone `EngineConfig`.
    config_bytes: Option<Vec<u8>>,
    meta_bytes: Option<Vec<u8>>,
    /// Interner tails as `(start, strings)` watermark deltas.
    raw: (usize, StrArena),
    folded: (usize, StrArena),
    uas: (usize, StrArena),
    paths: (usize, StrArena),
    hosts: (usize, Vec<Ipv4>),
    /// `(start, tail, days_ingested)` of the destination history log.
    history: (usize, Vec<DomainSym>, u32),
    /// `(rare_threshold, start, tail)` of the user-agent pair log.
    ua_history: (usize, usize, Vec<(UaSym, HostId)>),
    reports: Vec<DayReport>,
    products: Vec<Arc<DayProduct>>,
    sequence: u64,
    metrics: EngineMetrics,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("kind", &self.kind)
            .field("days", &self.reports.len())
            .field("sequence", &self.sequence)
            .finish_non_exhaustive()
    }
}

impl EngineSnapshot {
    /// Whether this snapshot serializes as a full block or a day segment.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// Number of day reports the snapshot carries (all stored days for a
    /// full snapshot, the delta for a day segment).
    pub fn days(&self) -> usize {
        self.reports.len()
    }

    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Serializes the frozen state as one self-checking block. This is
    /// the single write path for every snapshot — sync shims, the
    /// [`crate::Persistence`] worker, and compaction all funnel through
    /// it, which is what makes their outputs interchangeable.
    ///
    /// Writing the same snapshot twice produces the same bytes; writing to
    /// two sinks (say, a store commit and a side backup) is legitimate.
    ///
    /// # Errors
    ///
    /// Propagates writer failures as [`StoreError::Io`].
    pub fn write_to<W: Write>(&self, out: &mut W) -> StoreResult<CheckpointMeta> {
        let _checkpoint_span = self.metrics.checkpoint.start();
        let mut block = BlockWriter::begin(out, self.kind)?;

        if let (Some(config), Some(meta)) = (&self.config_bytes, &self.meta_bytes) {
            let mut e = Encoder::new();
            e.raw(config);
            block.section(SectionTag::Config, e)?;
            let mut e = Encoder::new();
            e.raw(meta);
            block.section(SectionTag::Meta, e)?;
        }

        let mut e = Encoder::new();
        sections::write_interner_tail(&mut e, self.raw.0, &self.raw.1);
        sections::write_interner_tail(&mut e, self.folded.0, &self.folded.1);
        sections::write_interner_tail(&mut e, self.uas.0, &self.uas.1);
        sections::write_interner_tail(&mut e, self.paths.0, &self.paths.1);
        block.section(SectionTag::Interners, e)?;

        let mut e = Encoder::new();
        sections::write_host_mapper_tail(&mut e, self.hosts.0, &self.hosts.1);
        block.section(SectionTag::Hosts, e)?;

        let mut e = Encoder::new();
        sections::write_domain_history_tail(
            &mut e,
            self.history.0,
            &self.history.1,
            self.history.2,
        );
        sections::write_ua_history_tail(
            &mut e,
            self.ua_history.0,
            self.ua_history.1,
            &self.ua_history.2,
        );
        block.section(SectionTag::History, e)?;

        let mut e = Encoder::new();
        e.usizev(self.reports.len());
        for report in &self.reports {
            write_day_report(&mut e, report);
        }
        block.section(SectionTag::Reports, e)?;

        // Products encode straight into the section: under `Persistence` a
        // sealed day ships in one block only (segments carry the days not
        // yet persisted), so no later block could reuse its bytes.
        let mut e = Encoder::new();
        e.usizev(self.products.len());
        for product in &self.products {
            sections::write_opt_dns_counts(&mut e, product.dns_counts.as_ref());
            sections::write_opt_proxy_counts(&mut e, product.proxy_counts.as_ref());
            sections::write_opt_norm_counts(&mut e, product.norm_counts.as_ref());
            sections::write_day_index(&mut e, &product.index);
        }
        block.section(SectionTag::Products, e)?;

        let mut e = Encoder::new();
        e.varint(self.sequence);
        block.section(SectionTag::Sequence, e)?;

        let (bytes, checksum) = block.finish()?;
        self.metrics.checkpoint_bytes.add(bytes);
        Ok(CheckpointMeta {
            kind: self.kind,
            format_version: FORMAT_VERSION,
            bytes,
            checksum,
            days: self.reports.len(),
            retained_days: self.products.len(),
        })
    }
}

impl EngineBuilder {
    /// Rebuilds an engine from a raw store stream — one full snapshot
    /// block written by [`Engine::freeze`] + [`EngineSnapshot::write_to`],
    /// optionally followed by day-segment blocks ([`Engine::freeze_day`]).
    /// The whole stream is read and checked into flat tables first, then
    /// thawed into the engine once per table, so a defect anywhere in the
    /// stream fails the restore before any engine state exists.
    ///
    /// All *semantic* configuration — pipeline thresholds, beacon detector,
    /// C&C and similarity models (trained or heuristic), belief-propagation
    /// limits, WHOIS registry and defaults, SOC seeds, bootstrap split,
    /// retention window — comes from the snapshot; setting those on the
    /// builder has no effect on restore. The builder contributes what a
    /// snapshot cannot carry across processes: the alert log, the
    /// machine-local performance knobs ([`EngineBuilder::parallelism`],
    /// [`EngineBuilder::parallel_threshold`],
    /// [`EngineBuilder::ingest_chunk_records`]) — none of which affects
    /// results — and, optionally, shared interners:
    /// [`EngineBuilder::proxy_interners`] installed before `restore` are
    /// honored (the snapshot contents are verified against them, so
    /// symbols a dataset minted after the checkpoint stay valid), and
    /// [`EngineBuilder::restore_stream_with_domains`] does the same for the raw
    /// domain interner of dataset-driven record pushes.
    ///
    /// The restored engine's continued operation is bit-identical to an
    /// engine that never restarted: identical reports, alerts, and alert
    /// sequence numbers for every subsequently ingested day.
    ///
    /// # Errors
    ///
    /// Every defect is a typed [`StoreError`]: [`StoreError::BadMagic`] for
    /// non-snapshot input, [`StoreError::UnsupportedVersion`] for future
    /// formats, [`StoreError::Truncated`] for torn writes,
    /// [`StoreError::ChecksumMismatch`] for bit rot, and
    /// [`StoreError::Corrupt`] for anything that decodes but violates an
    /// engine invariant — including a supplied shared interner whose
    /// contents disagree with the snapshot. No input panics.
    pub fn restore_stream<R: Read>(self, input: &mut R) -> Result<Engine, StoreError> {
        self.restore_impl(None, input)
    }

    /// [`EngineBuilder::restore_stream`] sharing the caller's raw domain interner
    /// (typically a dataset's), so records parsed or generated against it
    /// — including symbols minted *after* the checkpoint — remain valid in
    /// the restored engine. The snapshot's raw-interner contents are
    /// verified against `raw`; any disagreement is a typed
    /// [`StoreError::Corrupt`].
    ///
    /// # Errors
    ///
    /// As for [`EngineBuilder::restore_stream`].
    pub fn restore_stream_with_domains<R: Read>(
        self,
        raw: Arc<DomainInterner>,
        input: &mut R,
    ) -> Result<Engine, StoreError> {
        self.restore_impl(Some(raw), input)
    }

    pub(crate) fn restore_impl<R: Read>(
        self,
        raw: Option<Arc<DomainInterner>>,
        input: &mut R,
    ) -> Result<Engine, StoreError> {
        let (builder_cfg, alert_log, uas, paths, metrics) = self.into_parts();
        let restore_span = metrics.restore.start();
        let mut fold = {
            let _span = metrics.restore_fold.start();
            ChainFold::read(input)?
        };
        let cfg = &mut fold.cfg;
        cfg.parallelism = builder_cfg.parallelism.max(1);
        cfg.parallel_threshold = builder_cfg.parallel_threshold.max(1);
        cfg.ingest_chunk_records = builder_cfg.ingest_chunk_records.max(1);
        let mut engine = fold.thaw(alert_log, raw.unwrap_or_default(), uas, paths, metrics)?;

        // SOC seed symbols were interned at original build time, so they
        // already exist in the restored folded namespace; re-interning
        // resolves them without creating new symbols.
        engine.reintern_soc_seeds();
        engine.record_interner_shape();
        *engine.lock_cursor() = engine.current_cursor();
        restore_span.finish();
        Ok(engine)
    }
}

// -- chain fold -------------------------------------------------------------

/// A store chain folded into the parts of one full snapshot: each table a
/// flat append of the blocks' tails, with none of the indexes an engine
/// builds to serve lookups. Compaction writes it out as one full block;
/// restore thaws it into an engine.
struct ChainFold {
    /// The Config and Meta payloads, verbatim, and what they decode to.
    config_bytes: Vec<u8>,
    meta_bytes: Vec<u8>,
    cfg: EngineConfig,
    meta: DatasetMeta,
    raw: StrArena,
    folded: StrArena,
    uas: StrArena,
    paths: StrArena,
    hosts: Vec<Ipv4>,
    history: Vec<DomainSym>,
    days_ingested: u32,
    ua_pairs: Vec<(UaSym, HostId)>,
    reports: BTreeMap<Day, DayReport>,
    products: BTreeMap<Day, Arc<DayProduct>>,
    sequence: u64,
}

impl ChainFold {
    /// Reads the whole chain, block by block, making every per-block
    /// check. Repeats are left to the table's whole-chain check: compaction
    /// makes it with [`ChainFold::check_distinct`], a restore as the thaw
    /// builds each table.
    fn read<R: Read>(input: &mut R) -> StoreResult<Self> {
        let Some(mut block) = BlockReader::next_block(input)? else {
            return Err(StoreError::Truncated { context: "snapshot stream" });
        };
        if block.kind() != BlockKind::Full {
            return Err(StoreError::corrupt("store stream must begin with a full snapshot"));
        }
        let config_bytes = block.section(SectionTag::Config)?;
        let mut d = Decoder::new(&config_bytes, SectionTag::Config.name());
        let cfg = read_config(&mut d)?;
        d.finish()?;
        validate_config(&cfg).map_err(|e| StoreError::corrupt(e.to_string()))?;

        let meta_bytes = block.section(SectionTag::Meta)?;
        let mut d = Decoder::new(&meta_bytes, SectionTag::Meta.name());
        let meta = sections::read_dataset_meta(&mut d)?;
        d.finish()?;

        let mut fold = ChainFold {
            config_bytes,
            meta_bytes,
            cfg,
            meta,
            raw: StrArena::default(),
            folded: StrArena::default(),
            uas: StrArena::default(),
            paths: StrArena::default(),
            hosts: Vec::new(),
            history: Vec::new(),
            days_ingested: 0,
            ua_pairs: Vec::new(),
            reports: BTreeMap::new(),
            products: BTreeMap::new(),
            sequence: 0,
        };
        loop {
            fold.apply(&mut block)?;
            block.finish()?;
            block = match BlockReader::next_block(input)? {
                None => return Ok(fold),
                Some(next) if next.kind() == BlockKind::DaySegment => next,
                Some(_) => {
                    return Err(StoreError::corrupt(
                        "only one full snapshot may open a store stream; found a second",
                    ))
                }
            };
        }
    }

    /// Appends one block's state sections.
    fn apply<R: Read>(&mut self, block: &mut BlockReader<'_, R>) -> StoreResult<()> {
        read_section(block, SectionTag::Interners, |d| {
            sections::read_interner_onto(d, &mut self.raw, "raw domain")?;
            sections::read_interner_onto(d, &mut self.folded, "folded domain")?;
            sections::read_interner_onto(d, &mut self.uas, "user-agent")?;
            sections::read_interner_onto(d, &mut self.paths, "path")
        })?;
        let ips = read_section(block, SectionTag::Hosts, |d| {
            sections::read_host_tail(d, self.hosts.len())
        })?;
        self.hosts.extend(ips);
        read_section(block, SectionTag::History, |d| {
            let (start, domains, days_ingested) = sections::read_domain_history(d)?;
            check_delta_start("history", start, self.history.len())?;
            self.history.extend(domains);
            self.days_ingested = days_ingested;
            let (threshold, start, pairs) = sections::read_ua_history(d)?;
            let configured = self.cfg.pipeline.rare_ua_threshold;
            if threshold != configured {
                return Err(StoreError::corrupt(format!(
                    "snapshot rare-UA threshold {threshold} disagrees with configuration {configured}"
                )));
            }
            check_delta_start("user-agent history", start, self.ua_pairs.len())?;
            self.ua_pairs.extend(pairs);
            Ok(())
        })?;

        let is_segment = block.kind() == BlockKind::DaySegment;
        read_section(block, SectionTag::Reports, |d| {
            // Mirror of the write-side `StaleSegment` guard: a segment may
            // only carry days beyond everything already read — including
            // days earlier *in the same segment*, so an
            // internally-descending (corrupt or hand-crafted) segment is
            // rejected too.
            let mut newest = self.reports.keys().next_back().copied();
            for _ in 0..d.seq_len(4)? {
                let report = read_day_report(d)?;
                let day = report.day;
                if is_segment {
                    if newest.is_some_and(|newest| day < newest) {
                        return Err(StoreError::corrupt(format!(
                            "segment persists stale {day} behind already-replayed {}",
                            newest.expect("checked")
                        )));
                    }
                    newest = Some(day);
                }
                if self.reports.insert(day, report).is_some() {
                    return Err(StoreError::corrupt(format!("duplicate report for {day}")));
                }
            }
            Ok(())
        })?;
        read_section(block, SectionTag::Products, |d| {
            for _ in 0..d.seq_len(4)? {
                let dns_counts = sections::read_opt_dns_counts(d)?;
                let proxy_counts = sections::read_opt_proxy_counts(d)?;
                let norm_counts = sections::read_opt_norm_counts(d)?;
                let index = sections::read_day_index(d)?;
                let day = index.day();
                let product = DayProduct { index, dns_counts, proxy_counts, norm_counts };
                if self.products.insert(day, Arc::new(product)).is_some() {
                    return Err(StoreError::corrupt(format!("duplicate retained index for {day}")));
                }
            }
            Ok(())
        })?;
        // The configured retention window, across blocks, exactly like
        // live ingestion applies it.
        prune_oldest(&mut self.products, self.cfg.retain_days);

        let sequence = read_section(block, SectionTag::Sequence, |d| d.varint())?;
        if sequence < self.sequence {
            return Err(StoreError::corrupt("alert sequence counter moved backwards"));
        }
        self.sequence = sequence;
        Ok(())
    }

    /// Refuses a table that repeats an entry, with the error the thaw
    /// raises for it, checking the tables in the thaw's order.
    fn check_distinct(&self) -> StoreResult<()> {
        sections::check_interner_distinct(&self.raw, "raw domain")?;
        sections::check_interner_distinct(&self.folded, "folded domain")?;
        sections::check_interner_distinct(&self.uas, "user-agent")?;
        sections::check_interner_distinct(&self.paths, "path")?;
        if !all_distinct(&self.hosts) {
            return Err(sections::host_repeat());
        }
        if !all_distinct(&self.history) {
            return Err(history_repeat(DOMAIN_REPEAT));
        }
        if !all_distinct(&self.ua_pairs) {
            return Err(history_repeat(UA_PAIR_REPEAT));
        }
        Ok(())
    }

    /// Moves the folded state into a fresh engine, each table once: the
    /// interners build their indexes over the folded strings, the host map
    /// and the histories their lookup sets, and the days and the sequence
    /// counter move in as they are. Each table refuses a repeat as it
    /// builds. Empty interners and both histories adopt their folded
    /// tables by move, so no string table or history log is held twice.
    fn thaw(
        self,
        alert_log: Option<CollectedAlerts>,
        raw: Arc<DomainInterner>,
        uas: Option<Arc<UaInterner>>,
        paths: Option<Arc<PathInterner>>,
        metrics: EngineMetrics,
    ) -> StoreResult<Engine> {
        let mut engine = Engine::new(self.cfg, alert_log, raw, self.meta, uas, paths, metrics);
        let span = engine.metrics.restore_interners.start();
        thaw_interner(engine.fold.raw_interner(), self.raw, "raw domain")?;
        thaw_interner(engine.fold.folded_interner(), self.folded, "folded domain")?;
        thaw_interner(&engine.uas, self.uas, "user-agent")?;
        thaw_interner(&engine.paths, self.paths, "path")?;
        if !engine.line_hosts.extend_restored(self.hosts) {
            return Err(sections::host_repeat());
        }
        drop(span);

        let _span = engine.metrics.restore_history.start();
        engine.history = DomainHistory::from_log(self.history, self.days_ingested)
            .ok_or_else(|| history_repeat(DOMAIN_REPEAT))?;
        let threshold = engine.cfg.pipeline.rare_ua_threshold;
        engine.ua_history = UaHistory::from_log(threshold, self.ua_pairs)
            .ok_or_else(|| history_repeat(UA_PAIR_REPEAT))?;

        engine.reports = self.reports;
        engine.products = self.products;
        *engine.sequence.get_mut() = self.sequence;
        Ok(engine)
    }
}

/// Hands a folded table to an interner, empty or caller-shared.
fn thaw_interner<T>(interner: &TypedInterner<T>, strings: StrArena, what: &str) -> StoreResult<()> {
    if interner.extend_from_snapshot(strings) {
        Ok(())
    } else {
        Err(sections::interner_disagrees(what))
    }
}

/// Reads one section of `block` through `read`, which must consume it
/// whole. The payload is dropped on return: a full block's sections are
/// the size of the whole state, so no two of them are held at once.
fn read_section<R: Read, T>(
    block: &mut BlockReader<'_, R>,
    tag: SectionTag,
    read: impl FnOnce(&mut Decoder<'_>) -> StoreResult<T>,
) -> StoreResult<T> {
    let payload = block.section(tag)?;
    let mut d = Decoder::new(&payload, tag.name());
    let value = read(&mut d)?;
    d.finish()?;
    Ok(value)
}

fn check_delta_start(log: &str, start: usize, held: usize) -> StoreResult<()> {
    if start != held {
        return Err(StoreError::corrupt(format!(
            "{log} delta starts at {start}, engine holds {held}"
        )));
    }
    Ok(())
}

const DOMAIN_REPEAT: &str = "destination-history delta repeats a domain";
const UA_PAIR_REPEAT: &str = "user-agent history delta repeats a (user agent, host) pair";

fn history_repeat(what: &str) -> StoreError {
    StoreError::corrupt(format!("section `{}`: {what}", SectionTag::History.name()))
}

fn all_distinct<T: Copy + Ord>(items: &[T]) -> bool {
    let mut sorted = items.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|pair| pair[0] != pair[1])
}

impl EngineSnapshot {
    /// Folds a `full + N segments` store stream into one full snapshot
    /// without building an engine, then prunes its retained day indexes to
    /// the newest `retain_days` (a store's retention policy). Returns the
    /// snapshot and how many indexes that prune dropped.
    ///
    /// Before that prune, [`EngineSnapshot::write_to`] writes the snapshot
    /// as exactly the bytes of a full [`Engine::freeze`] of the engine that
    /// wrote the chain, at the state the chain holds: the Config and Meta
    /// payloads are copied verbatim (machine-local knobs included), every
    /// table is its blocks' tails appended in order, and days are decoded
    /// into the columns a live day holds.
    ///
    /// # Errors
    ///
    /// Every [`StoreError`] a restore of the same chain raises, with the
    /// same context. Repeated strings, addresses and history entries are
    /// checked once per table after the last block, so in a chain with
    /// more than one defect the fold may name a different one.
    pub(crate) fn fold_chain<R: Read>(
        input: &mut R,
        retain_days: Option<usize>,
    ) -> StoreResult<(EngineSnapshot, usize)> {
        let mut fold = ChainFold::read(input)?;
        fold.check_distinct()?;
        let days_pruned = prune_oldest(&mut fold.products, retain_days);

        let snapshot = EngineSnapshot {
            kind: BlockKind::Full,
            config_bytes: Some(fold.config_bytes),
            meta_bytes: Some(fold.meta_bytes),
            raw: (0, fold.raw),
            folded: (0, fold.folded),
            uas: (0, fold.uas),
            paths: (0, fold.paths),
            hosts: (0, fold.hosts),
            history: (0, fold.history, fold.days_ingested),
            ua_history: (fold.cfg.pipeline.rare_ua_threshold, 0, fold.ua_pairs),
            reports: fold.reports.into_values().collect(),
            products: fold.products.into_values().collect(),
            sequence: fold.sequence,
            // A private registry: writing the folded block is not one of
            // the live engine's checkpoints.
            metrics: EngineBuilder::make_metrics(None, &[]),
        };
        Ok((snapshot, days_pruned))
    }
}

// -- engine config ----------------------------------------------------------

fn write_config(e: &mut Encoder, cfg: &EngineConfig) {
    e.usizev(cfg.pipeline.fold_level);
    e.usizev(cfg.pipeline.unpopular_threshold);
    e.usizev(cfg.pipeline.rare_ua_threshold);
    sections::write_automation(e, &cfg.automation);
    match &cfg.cc_model {
        CcModel::LanlHeuristic { min_hosts, period_tolerance_secs } => {
            e.u8(0);
            e.usizev(*min_hosts);
            e.varint(*period_tolerance_secs);
        }
        CcModel::Regression { model, scaler } => {
            e.u8(1);
            sections::write_regression_model(e, model);
            sections::write_scaler(e, scaler);
        }
    }
    match &cfg.sim {
        SimScorer::Additive { scorer, threshold, correlation_window_secs } => {
            e.u8(0);
            sections::write_additive(e, scorer);
            e.f64(*threshold);
            e.varint(*correlation_window_secs);
        }
        SimScorer::Regression { model, scaler } => {
            e.u8(1);
            sections::write_regression_model(e, model);
            sections::write_scaler(e, scaler);
        }
    }
    e.usizev(cfg.bp.max_iterations);
    match &cfg.whois {
        None => e.bool(false),
        Some(whois) => {
            e.bool(true);
            sections::write_whois(e, whois);
        }
    }
    e.f64(cfg.whois_defaults.0);
    e.f64(cfg.whois_defaults.1);
    e.usizev(cfg.soc_seed_domains.len());
    for seed in &cfg.soc_seed_domains {
        e.str(seed);
    }
    e.bool(cfg.auto_investigate);
    e.usizev(cfg.parallelism);
    e.usizev(cfg.parallel_threshold);
    e.usizev(cfg.ingest_chunk_records);
    e.opt_varint(cfg.bootstrap_days.map(u64::from));
    e.opt_varint(cfg.retain_days.map(|d| d as u64));
}

fn read_config(d: &mut Decoder<'_>) -> StoreResult<EngineConfig> {
    let pipeline = PipelineConfig {
        fold_level: d.usizev()?,
        unpopular_threshold: d.usizev()?,
        rare_ua_threshold: d.usizev()?,
    };
    let automation = sections::read_automation(d)?;
    let cc_model = match d.u8()? {
        0 => CcModel::LanlHeuristic { min_hosts: d.usizev()?, period_tolerance_secs: d.varint()? },
        1 => CcModel::Regression {
            model: sections::read_regression_model(d)?,
            scaler: sections::read_scaler(d)?,
        },
        b => return Err(StoreError::corrupt(format!("unknown C&C model tag {b}"))),
    };
    if let CcModel::Regression { model, scaler } = &cc_model {
        if scaler.n_features() != model.fit().n_features() {
            return Err(StoreError::corrupt("C&C scaler/model feature count mismatch"));
        }
    }
    let sim = match d.u8()? {
        0 => SimScorer::Additive {
            scorer: sections::read_additive(d)?,
            threshold: d.f64()?,
            correlation_window_secs: d.varint()?,
        },
        1 => {
            let model = sections::read_regression_model(d)?;
            let scaler = sections::read_scaler(d)?;
            if scaler.n_features() != model.fit().n_features() {
                return Err(StoreError::corrupt("similarity scaler/model feature count mismatch"));
            }
            SimScorer::Regression { model, scaler }
        }
        b => return Err(StoreError::corrupt(format!("unknown similarity scorer tag {b}"))),
    };
    let bp = BpConfig { max_iterations: d.usizev()? };
    let whois = if d.bool()? { Some(sections::read_whois(d)?) } else { None };
    let whois_defaults = (d.f64()?, d.f64()?);
    let n = d.seq_len(1)?;
    let mut soc_seed_domains = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        soc_seed_domains.push(d.str()?);
    }
    let auto_investigate = d.bool()?;
    let parallelism = d.usizev()?;
    let parallel_threshold = d.usizev()?;
    let ingest_chunk_records = d.usizev()?;
    let bootstrap_days = match d.opt_varint()? {
        None => None,
        Some(v) => Some(
            u32::try_from(v)
                .map_err(|_| StoreError::corrupt("bootstrap_days override exceeds u32"))?,
        ),
    };
    let retain_days = match d.opt_varint()? {
        None => None,
        Some(v) => {
            Some(usize::try_from(v).map_err(|_| StoreError::corrupt("retain_days exceeds usize"))?)
        }
    };
    Ok(EngineConfig {
        pipeline,
        automation,
        cc_model,
        sim,
        bp,
        whois,
        whois_defaults,
        soc_seed_domains,
        auto_investigate,
        parallelism,
        parallel_threshold,
        ingest_chunk_records,
        bootstrap_days,
        retain_days,
    })
}

// -- day reports ------------------------------------------------------------

fn write_day_report(e: &mut Encoder, report: &DayReport) {
    e.u32v(report.day.index());
    e.bool(report.bootstrap);
    let s = &report.stages;
    e.usizev(s.records_in);
    e.usizev(s.parse_errors);
    e.usizev(s.domains_all);
    e.usizev(s.domains_after_internal_filter);
    e.usizev(s.domains_after_server_filter);
    e.usizev(s.new_destinations);
    e.usizev(s.rare_destinations);
    e.usizev(s.automated_domains);
    e.usizev(s.cc_detections);
    e.usizev(s.bp_iterations);
    e.usizev(s.bp_labeled);
    e.usizev(s.alerts_emitted);
    // The retired sink-failure count: format-1 bytes must not move.
    e.usizev(0);
    // wall_micros is deliberately not part of the format: it is wall-clock
    // measurement noise, not engine state, and persisting it would make
    // otherwise-identical states produce different snapshot bytes.
    sections::write_opt_dns_counts(e, report.dns_counts.as_ref());
    sections::write_opt_proxy_counts(e, report.proxy_counts.as_ref());
    sections::write_opt_norm_counts(e, report.norm_counts.as_ref());
}

fn read_day_report(d: &mut Decoder<'_>) -> StoreResult<DayReport> {
    let day = Day::new(d.u32v()?);
    let bootstrap = d.bool()?;
    let stages = StageCounters {
        records_in: d.usizev()?,
        parse_errors: d.usizev()?,
        domains_all: d.usizev()?,
        domains_after_internal_filter: d.usizev()?,
        domains_after_server_filter: d.usizev()?,
        new_destinations: d.usizev()?,
        rare_destinations: d.usizev()?,
        automated_domains: d.usizev()?,
        cc_detections: d.usizev()?,
        bp_iterations: d.usizev()?,
        bp_labeled: d.usizev()?,
        alerts_emitted: d.usizev()?,
        wall_micros: 0,
    };
    // The retired sink-failure count: format-1 bytes must not move.
    d.usizev()?;
    Ok(DayReport {
        day,
        bootstrap,
        duplicate: false,
        stages,
        dns_counts: sections::read_opt_dns_counts(d)?,
        proxy_counts: sections::read_opt_proxy_counts(d)?,
        norm_counts: sections::read_opt_norm_counts(d)?,
        cc_candidates: Vec::new(),
        alerts: Vec::new(),
        outcome: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DayBatch;
    use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};

    fn full_freeze(engine: &Engine) -> Vec<u8> {
        let mut out = Vec::new();
        engine.freeze().write_to(&mut out).expect("full freeze writes");
        out
    }

    /// With a configured retention window the fold prunes after every
    /// block, as live ingestion did, and still writes the writer's full
    /// freeze; a store policy then prunes on top of it, exactly like
    /// pruning the writer.
    #[test]
    fn fold_prunes_like_the_writer() {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let mut engine = EngineBuilder::lanl()
            .retain_days(2)
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .expect("valid config");
        let last = challenge.dataset.meta.bootstrap_days as usize + 5;
        let mut chain = Vec::new();
        for (i, day) in challenge.dataset.days[..last].iter().enumerate() {
            engine.ingest_day(DayBatch::Dns(day));
            let snapshot = if i == 0 { engine.freeze() } else { engine.freeze_day().unwrap() };
            snapshot.write_to(&mut chain).expect("block writes");
        }
        assert_eq!(engine.days().count(), 2, "the window holds two days");

        let fold = |retain_days| {
            let (snapshot, pruned) =
                EngineSnapshot::fold_chain(&mut &chain[..], retain_days).expect("chain folds");
            let mut out = Vec::new();
            snapshot.write_to(&mut out).expect("fold writes");
            (out, pruned)
        };
        assert!(fold(None) == (full_freeze(&engine), 0), "no store window");
        assert!(fold(Some(5)) == (full_freeze(&engine), 0), "a wider store window");
        let (pruned_bytes, pruned) = fold(Some(1));
        assert_eq!(prune_oldest(&mut engine.products, Some(1)), 1);
        assert_eq!(pruned, 1, "the store window drops one more day");
        assert!(pruned_bytes == full_freeze(&engine), "pruned like the writer");
    }
}
