//! Horizontal sharding: partition-by-host parallel reduction with a
//! deterministic merge.
//!
//! A single [`Engine`] already parallelizes *within* each pushed span, but
//! the absorb step — feeding every reduced chunk into the one
//! [`earlybird_core::DayAccum`] — is sequential, and on wide days it
//! dominates. [`ShardedEngine`] removes that ceiling by partitioning the
//! day's traffic across N independent *shards*, each with its own
//! reduction state, and only reconciling at day seal:
//!
//! 1. **Partition.** Every record is routed by a stable multiplicative
//!    hash of its internal host id ([`shard_of`]). The host↔domain contact
//!    graph of the paper (§IV-B) is keyed by `(host, domain)`, so a
//!    host-pure partition makes the per-shard edge maps disjoint by
//!    construction.
//! 2. **Reduce in parallel.** Each shard reduces its records against its
//!    own fold table, internal-name filter, [`DayReducer`] and
//!    [`DayIndexBuilder`] — no shared mutable state, no locks on the hot
//!    path.
//! 3. **Merge deterministically.** At [`ShardedDayIngest::finish`] the
//!    shard partials are remapped onto the canonical folded interner and
//!    unioned in shard order; the rare-domain sieve, C&C scoring and
//!    belief propagation then run **once** over the merged view, exactly
//!    as in the single-engine path.
//!
//! # The determinism contract
//!
//! For any shard count N ≥ 1 — including N = 1 — and any chunking of the
//! pushed spans, a `ShardedEngine` produces **byte-identical** results to
//! a plain [`Engine`] fed the same records: the same [`DayReport`]s, the
//! same alerts in the same order, and the same checkpoint bytes.
//!
//! The subtle part is folded-symbol numbering. Downstream tie-breaks
//! (candidate ordering, snapshot bytes) depend on the order in which
//! folded domain names were first interned, so the canonical fold
//! warm-up ([`DailyPipeline::warm_dns_folds`]) runs sequentially over
//! every span in arrival order *before* the shards touch it — the same
//! rule the single-engine parallel path follows. Shards then fold against
//! a **fork** of the canonical folded interner taken at day open: names
//! already canonical keep their numbering, while names first seen mid-day
//! mint shard-local tail symbols. At merge, each tail symbol is resolved
//! by name back into the canonical table (the warm-up guarantees a hit)
//! and every shard-local symbol in the partial is rewritten before the
//! union. Because histories only update at day seal, a shard-local
//! symbol's novelty verdict ([`earlybird_pipeline::DomainHistory`]) always
//! matches its canonical counterpart's.
//!
//! [`DailyPipeline`]: earlybird_core::DailyPipeline
//! [`DailyPipeline::warm_dns_folds`]: earlybird_core::DailyPipeline::warm_dns_folds

use crate::builder::EngineError;
use crate::core_loop::Engine;
use crate::ingest::{map_shards, parse_shards, shard_spans, IngestSource};
use crate::report::DayReport;
use crate::DayBatch;
use earlybird_core::{DayAccum, ShardDayPartial};
use earlybird_logmodel::{
    parse_dns_span, parse_proxy_span, payload_line, Day, DhcpLog, DnsQuery, DomainInterner,
    DomainSym, HostId, ParseLogError, ProxyRecord, UaSym,
};
use earlybird_obs::StageTimer;
use earlybird_pipeline::{
    reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayIndexBuilder, DayReducer,
    DomainHistory, FoldTable, InternalFilter, NormalizationCounts, ReductionConfig, UaHistory,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Routes an internal host to its shard: a Knuth multiplicative hash of
/// the host id, stable across runs, platforms and shard layouts.
///
/// Host ids are assigned densely in first-seen order, so a plain modulus
/// would put consecutive hosts on consecutive shards — fine for balance,
/// but any future range-correlated workload (hosts enumerated by subnet)
/// would alias. The golden-ratio multiplier scrambles the low bits first.
#[inline]
pub fn shard_of(host: HostId, shards: usize) -> usize {
    (host.index().wrapping_mul(0x9E37_79B1) as usize) % shards
}

/// Per-shard metric handles: one `engine_stage_micros{stage="shard_reduce",
/// shard=i}` timer per shard plus the merge-time histogram
/// `engine_stage_micros{stage="shard_merge"}`.
#[derive(Debug)]
struct ShardMetrics {
    reduce: Vec<StageTimer>,
    merge: StageTimer,
}

impl ShardMetrics {
    fn new(engine: &Engine, shards: usize) -> Self {
        let registry = engine.metrics.registry();
        let timer = |labels: &[(&str, &str)]| {
            registry.timer(
                "engine_stage_micros",
                "Wall time per engine pipeline stage in microseconds",
                labels,
            )
        };
        let reduce = (0..shards)
            .map(|i| {
                let idx = i.to_string();
                timer(&[("stage", "shard_reduce"), ("shard", idx.as_str())])
            })
            .collect();
        ShardMetrics { reduce, merge: timer(&[("stage", "shard_merge")]) }
    }
}

/// N host-partitioned reduction lanes over one [`Engine`], merged
/// deterministically at day seal. The module-level docs in
/// `crates/engine/src/shard.rs` spell out the execution model and the
/// determinism contract.
///
/// Everything that is not the day's reduction — detection tail,
/// checkpointing, alert sinks, replay guard, retained products — still
/// lives in the inner engine, which stays reachable through
/// [`ShardedEngine::engine`] / [`ShardedEngine::engine_mut`].
#[derive(Debug)]
pub struct ShardedEngine {
    engine: Engine,
    shards: usize,
    metrics: ShardMetrics,
}

impl ShardedEngine {
    /// Wraps `engine` with `shards` parallel reduction lanes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(engine: Engine, shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let metrics = ShardMetrics::new(&engine, shards);
        ShardedEngine { engine, shards, metrics }
    }

    /// The number of parallel reduction lanes.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The wrapped engine (checkpointing, queries, reports).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine — checkpoint it, attach sinks,
    /// run investigations. Do not hold this across an open
    /// [`ShardedDayIngest`]; the borrow checker enforces as much.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Unwraps back into the plain engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Opens a streaming sharded ingest for `day` — the sharded counterpart
    /// of [`Engine::begin_day`], with the same replay semantics: a day that
    /// was already ingested accepts pushes as no-ops.
    pub fn begin_day<'a>(
        &mut self,
        day: Day,
        source: IngestSource<'a>,
    ) -> ShardedDayIngest<'_, 'a> {
        let started = Instant::now();
        let (accum, workers, base_len) = if self.engine.reports.contains_key(&day) {
            (None, Vec::new(), 0)
        } else {
            let bootstrap = day.index() < self.engine.bootstrap_days();
            let accum = match source {
                IngestSource::Dns => {
                    self.engine.pipeline.begin_dns_day(day, &self.engine.meta, bootstrap)
                }
                IngestSource::Proxy { .. } => {
                    self.engine.pipeline.begin_proxy_day(day, &self.engine.meta, bootstrap)
                }
            };
            // The canonical/local split point: every folded symbol below
            // this is shared by construction (the fork copies the table);
            // everything at or above it is day-local and gets remapped at
            // merge. Captured before any of the day's folds.
            let base_len = self.engine.pipeline.folded_interner().len();
            let workers: Vec<ShardWorker> =
                (0..self.shards).map(|_| ShardWorker::new(&self.engine, day, bootstrap)).collect();
            (Some(accum), workers, base_len)
        };
        let state = ShardedDayState {
            day,
            dns: source.is_dns(),
            base_len,
            accum,
            workers,
            parse_errors: 0,
            started,
        };
        ShardedDayIngest { sharded: self, source, state }
    }

    /// Ingests one whole-day batch through the sharded path; equivalent to
    /// [`Engine::ingest_day`] and byte-identical in its results.
    ///
    /// # Panics
    ///
    /// Panics if a C&C scoring worker dies; use
    /// [`ShardedEngine::try_ingest_day`] for the typed-error path.
    pub fn ingest_day(&mut self, batch: DayBatch<'_>) -> DayReport {
        self.try_ingest_day(batch).unwrap_or_else(|e| panic!("daily cycle failed: {e}"))
    }

    /// [`ShardedEngine::ingest_day`] with runtime faults surfaced as typed
    /// [`EngineError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] when a C&C scoring worker dies; same
    /// registration semantics as [`Engine::try_ingest_day`].
    pub fn try_ingest_day(&mut self, batch: DayBatch<'_>) -> Result<DayReport, EngineError> {
        match batch {
            DayBatch::Dns(d) => {
                let mut ingest = self.begin_day(d.day, IngestSource::Dns);
                ingest.push_dns_records(&d.queries);
                ingest.try_finish()
            }
            DayBatch::Proxy { day, dhcp } => {
                let mut ingest = self.begin_day(day.day, IngestSource::Proxy { dhcp });
                ingest.push_proxy_records(&day.records);
                ingest.try_finish()
            }
        }
    }
}

/// One shard's private reduction lane: a forked fold table, its own
/// filter, reducer and index builder, and the partition buffers records
/// are routed into between runs.
#[derive(Debug)]
struct ShardWorker {
    fold: FoldTable,
    filter: InternalFilter,
    reducer: DayReducer,
    builder: Option<DayIndexBuilder>,
    day_domains: HashSet<DomainSym>,
    ua_pairs: HashSet<(UaSym, HostId)>,
    dns_buf: Vec<DnsQuery>,
    proxy_buf: Vec<ProxyRecord>,
}

impl ShardWorker {
    fn new(engine: &Engine, day: Day, bootstrap: bool) -> Self {
        let pipeline = &engine.pipeline;
        let cfg = pipeline.config();
        // Fork, not share: the local folded interner keeps canonical
        // numbering for every name known at day open and diverges privately
        // for names first seen mid-day. `into_partial` reconciles the tail.
        let local = Arc::new(pipeline.folded_interner().fork());
        ShardWorker {
            fold: FoldTable::from_interners(
                Arc::clone(pipeline.raw_interner()),
                local,
                cfg.fold_level,
            ),
            filter: InternalFilter::new(ReductionConfig::from_meta(&engine.meta)),
            reducer: DayReducer::new(),
            builder: (!bootstrap).then(|| DayIndexBuilder::new(day, cfg.unpopular_threshold)),
            day_domains: HashSet::new(),
            ua_pairs: HashSet::new(),
            dns_buf: Vec::new(),
            proxy_buf: Vec::new(),
        }
    }

    /// The shard-local mirror of `DailyPipeline::absorb_chunk`.
    fn absorb(&mut self, chunk: ChunkReduction, history: &DomainHistory, ua_history: &UaHistory) {
        self.reducer.push_chunk(&chunk);
        for c in &chunk.contacts {
            if let Some(ua) = c.http.and_then(|h| h.ua) {
                self.ua_pairs.insert((ua, c.host));
            }
        }
        match &mut self.builder {
            Some(builder) => builder.push_contacts(&chunk.contacts, history, Some(ua_history)),
            None => self.day_domains.extend(chunk.contacts.iter().map(|c| c.domain)),
        }
    }

    /// Rewrites every shard-local folded symbol onto the canonical table
    /// and surrenders the shard's accumulation for the merge.
    fn into_partial(mut self, base_len: usize, canonical: &DomainInterner) -> ShardDayPartial {
        // Shard-local tail symbols are dense from `base_len` up.
        let minted = self.fold.folded_interner().tail(base_len);
        if !minted.is_empty() {
            // Look each one up by name in the canonical table. The
            // sequential warm-up folded every record the shard saw, so
            // lookups cannot miss.
            let tail: Vec<DomainSym> = minted
                .iter()
                .map(|name| {
                    canonical
                        .get(name)
                        .expect("canonical fold warm-up covers every shard-local name")
                })
                .collect();
            let map = |d: DomainSym| {
                let raw = d.raw() as usize;
                if raw < base_len {
                    d
                } else {
                    tail[raw - base_len]
                }
            };
            self.reducer.remap_domains(map);
            if let Some(builder) = &mut self.builder {
                builder.remap_domains(map);
            }
            self.day_domains = self.day_domains.iter().map(|&d| map(d)).collect();
        }
        ShardDayPartial {
            reducer: self.reducer,
            builder: self.builder,
            day_domains: self.day_domains,
            ua_pairs: self.ua_pairs,
        }
    }
}

/// Push handle for one sharded streaming day; created by
/// [`ShardedEngine::begin_day`]. Same chunking-invariance contract as
/// [`crate::DayIngest`]: any mix of record and line pushes in any span
/// sizes yields identical results.
#[derive(Debug)]
pub struct ShardedDayIngest<'s, 'a> {
    sharded: &'s mut ShardedEngine,
    source: IngestSource<'a>,
    state: ShardedDayState,
}

#[derive(Debug)]
struct ShardedDayState {
    day: Day,
    #[allow(dead_code)]
    dns: bool,
    /// Canonical folded-interner length at day open — the split point
    /// between shared and shard-local symbol ranges.
    base_len: usize,
    /// `None` when the day is a replay (nothing accumulates).
    accum: Option<DayAccum>,
    workers: Vec<ShardWorker>,
    parse_errors: usize,
    started: Instant,
}

impl ShardedDayIngest<'_, '_> {
    /// The day being ingested.
    pub fn day(&self) -> Day {
        self.state.day
    }

    /// Whether this day was already ingested (pushes are no-ops).
    pub fn is_duplicate(&self) -> bool {
        self.state.accum.is_none()
    }

    /// Raw records pushed so far.
    pub fn records_pushed(&self) -> usize {
        self.state.accum.as_ref().map_or(0, DayAccum::records_in)
    }

    /// Parse errors accumulated by [`ShardedDayIngest::push_lines`] so far.
    pub fn parse_errors(&self) -> usize {
        self.state.parse_errors
    }

    /// Pushes a span of DNS queries, partitioning it across the shards.
    ///
    /// # Panics
    ///
    /// Panics if the ingest was opened with a proxy source.
    pub fn push_dns_records(&mut self, records: &[DnsQuery]) {
        assert!(self.source.is_dns(), "DNS records pushed into a proxy-source day");
        let Some(accum) = &mut self.state.accum else { return };
        accum.count_raw_records(records.len());
        let engine = &self.sharded.engine;
        engine.metrics.records.add(records.len() as u64);
        let _reduce_span = engine.metrics.reduce.start();
        reduce_dns_sharded(engine, &self.sharded.metrics, &mut self.state.workers, &[records]);
    }

    /// Pushes a span of raw proxy records: normalization runs on the
    /// engine's worker pool, then the normalized records are partitioned
    /// across the shards.
    ///
    /// # Panics
    ///
    /// Panics if the ingest was opened with the DNS source.
    pub fn push_proxy_records(&mut self, records: &[ProxyRecord]) {
        let IngestSource::Proxy { dhcp } = self.source else {
            panic!("proxy records pushed into a DNS-source day");
        };
        let Some(accum) = &mut self.state.accum else { return };
        accum.count_raw_records(records.len());
        let engine = &self.sharded.engine;
        engine.metrics.records.add(records.len() as u64);
        let _reduce_span = engine.metrics.reduce.start();
        let spans = shard_spans(records, engine.cfg.parallelism, engine.cfg.ingest_chunk_records);
        reduce_proxy_sharded(
            engine,
            &self.sharded.metrics,
            accum,
            &mut self.state.workers,
            &spans,
            dhcp,
        );
    }

    /// Pushes a block of raw log lines — the sharded counterpart of
    /// [`crate::DayIngest::push_lines`], with identical parsing (parallel,
    /// parse-time interning, sequential host-id assignment) and the same
    /// error reporting.
    pub fn push_lines(&mut self, text: &str) -> Vec<(usize, ParseLogError)> {
        if self.state.accum.is_none() {
            return Vec::new();
        }
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter_map(|(i, line)| payload_line(line).map(|l| (i + 1, l)))
            .collect();

        let mut errors: Vec<(usize, ParseLogError)> = Vec::new();
        match self.source {
            IngestSource::Dns => {
                let engine = &self.sharded.engine;
                let spans =
                    shard_spans(&lines, engine.cfg.parallelism, engine.cfg.ingest_chunk_records);
                let mut chunks = engine.scratch.take_dns(spans.len());
                let parse_span = engine.metrics.parse.start();
                {
                    let domains = engine.pipeline.raw_interner();
                    parse_shards(&spans, &mut chunks, |span, chunk| {
                        parse_dns_span(span.iter().copied(), domains, chunk);
                    });
                }
                // Host ids depend on first-seen order: assign sequentially,
                // span by span in arrival order — the partition hash below
                // must see the same ids a single engine would assign.
                for chunk in &mut chunks {
                    self.sharded.engine.line_hosts.assign(&mut chunk.records);
                    errors.append(&mut chunk.errors);
                }
                parse_span.finish();
                let total: usize = chunks.iter().map(|c| c.records.len()).sum();
                let spans: Vec<&[DnsQuery]> = chunks.iter().map(|c| c.records.as_slice()).collect();
                let engine = &self.sharded.engine;
                if let Some(accum) = &mut self.state.accum {
                    accum.count_raw_records(total);
                    engine.metrics.records.add(total as u64);
                    let _reduce_span = engine.metrics.reduce.start();
                    reduce_dns_sharded(
                        engine,
                        &self.sharded.metrics,
                        &mut self.state.workers,
                        &spans,
                    );
                }
                drop(spans);
                engine.scratch.give_dns(chunks);
            }
            IngestSource::Proxy { dhcp } => {
                let engine = &self.sharded.engine;
                let spans =
                    shard_spans(&lines, engine.cfg.parallelism, engine.cfg.ingest_chunk_records);
                let mut chunks = engine.scratch.take_proxy(spans.len());
                let parse_span = engine.metrics.parse.start();
                {
                    let domains = engine.pipeline.raw_interner();
                    let (uas, paths) = (&engine.uas, &engine.paths);
                    parse_shards(&spans, &mut chunks, |span, chunk| {
                        parse_proxy_span(span.iter().copied(), domains, uas, paths, chunk);
                    });
                }
                for chunk in &mut chunks {
                    errors.append(&mut chunk.errors);
                }
                parse_span.finish();
                let total: usize = chunks.iter().map(|c| c.records.len()).sum();
                let spans: Vec<&[ProxyRecord]> =
                    chunks.iter().map(|c| c.records.as_slice()).collect();
                if let Some(accum) = &mut self.state.accum {
                    accum.count_raw_records(total);
                    engine.metrics.records.add(total as u64);
                    let _reduce_span = engine.metrics.reduce.start();
                    reduce_proxy_sharded(
                        engine,
                        &self.sharded.metrics,
                        accum,
                        &mut self.state.workers,
                        &spans,
                        dhcp,
                    );
                }
                drop(spans);
                engine.scratch.give_proxy(chunks);
            }
        }
        errors.sort_by_key(|(lineno, _)| *lineno);
        self.state.parse_errors += errors.len();
        self.sharded.engine.metrics.parse_errors.add(errors.len() as u64);
        errors
    }

    /// Seals the day: merges the shard partials onto the canonical
    /// accumulator in shard order, then runs the unchanged finalize +
    /// detection tail — once, over the merged view.
    ///
    /// # Panics
    ///
    /// Panics if a C&C scoring worker dies; use
    /// [`ShardedDayIngest::try_finish`] for the typed-error path.
    pub fn finish(self) -> DayReport {
        self.try_finish().unwrap_or_else(|e| panic!("daily cycle failed: {e}"))
    }

    /// [`ShardedDayIngest::finish`] with runtime faults surfaced as typed
    /// [`EngineError`]s; same semantics as [`crate::DayIngest::try_finish`].
    pub fn try_finish(self) -> Result<DayReport, EngineError> {
        let ShardedDayIngest { sharded, state, .. } = self;
        let ShardedDayState { day, base_len, accum, workers, parse_errors, started, .. } = state;
        let Some(mut accum) = accum else {
            let mut replay = sharded
                .engine
                .reports
                .get(&day)
                .cloned()
                .expect("duplicate day must have a stored report");
            replay.duplicate = true;
            return Ok(replay);
        };
        let merge_started = Instant::now();
        {
            let canonical = Arc::clone(sharded.engine.pipeline.folded_interner());
            for worker in workers {
                let partial = worker.into_partial(base_len, &canonical);
                sharded.engine.pipeline.absorb_shard_partial(&mut accum, partial);
            }
        }
        sharded.metrics.merge.observe_micros(merge_started.elapsed().as_micros() as u64);
        sharded.engine.seal_streamed_day(day, accum, parse_errors, started)
    }
}

/// Partitions pre-warmed DNS spans across the shards and reduces each
/// shard's slice in parallel.
fn reduce_dns_sharded(
    engine: &Engine,
    metrics: &ShardMetrics,
    workers: &mut [ShardWorker],
    spans: &[&[DnsQuery]],
) {
    // Canonical folded numbering is fixed up front, sequentially in
    // arrival order — the anchor of the determinism contract.
    for span in spans {
        engine.pipeline.warm_dns_folds(span);
    }
    let n = workers.len();
    for w in workers.iter_mut() {
        w.dns_buf.clear();
    }
    for span in spans {
        for q in *span {
            workers[shard_of(q.src, n)].dns_buf.push(*q);
        }
    }
    run_workers(workers, metrics, |w| {
        let chunk = reduce_dns_chunk(&w.dns_buf, &engine.meta, &w.fold, &w.filter);
        w.absorb(chunk, engine.pipeline.history(), engine.pipeline.ua_history());
    });
}

/// Normalizes raw proxy spans on the worker pool, then partitions the
/// normalized records across the shards and reduces in parallel.
fn reduce_proxy_sharded(
    engine: &Engine,
    metrics: &ShardMetrics,
    accum: &mut DayAccum,
    workers: &mut [ShardWorker],
    spans: &[&[ProxyRecord]],
    dhcp: &DhcpLog,
) {
    let normalized: Vec<(Vec<ProxyRecord>, NormalizationCounts)> =
        map_shards(spans, |span| engine.pipeline.normalize_proxy_records(span, dhcp));
    for (_, counts) in &normalized {
        accum.merge_norm(counts);
    }
    for (records, _) in &normalized {
        engine.pipeline.warm_proxy_folds(records);
    }
    let n = workers.len();
    for w in workers.iter_mut() {
        w.proxy_buf.clear();
    }
    for (records, _) in &normalized {
        for r in records {
            let host = r.host.expect("proxy records must be normalized before reduction");
            workers[shard_of(host, n)].proxy_buf.push(*r);
        }
    }
    run_workers(workers, metrics, |w| {
        let chunk = reduce_proxy_chunk(&w.proxy_buf, &engine.meta, &w.fold, &w.filter);
        w.absorb(chunk, engine.pipeline.history(), engine.pipeline.ua_history());
    });
}

/// Runs `f` over every shard worker on scoped threads, timing each lane
/// on its `shard_reduce` series; a single shard runs inline.
fn run_workers(
    workers: &mut [ShardWorker],
    metrics: &ShardMetrics,
    f: impl Fn(&mut ShardWorker) + Sync,
) {
    if workers.len() <= 1 {
        if let Some(w) = workers.first_mut() {
            let started = Instant::now();
            f(w);
            metrics.reduce[0].observe_micros(started.elapsed().as_micros() as u64);
        }
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(&metrics.reduce)
            .map(|(w, timer)| {
                scope.spawn(move || {
                    let started = Instant::now();
                    f(w);
                    timer.observe_micros(started.elapsed().as_micros() as u64);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shard reduce worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_total() {
        // The routing hash is part of the determinism contract: these
        // values must never change across releases.
        assert_eq!(shard_of(HostId::new(0), 4), 0);
        assert_eq!(shard_of(HostId::new(1), 4), 0x9E37_79B1usize % 4);
        for i in 0..1000u32 {
            let s = shard_of(HostId::new(i), 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(HostId::new(i), 7));
        }
        // One shard degenerates to the identity route.
        for i in 0..100u32 {
            assert_eq!(shard_of(HostId::new(i), 1), 0);
        }
    }

    #[test]
    fn shard_of_spreads_dense_host_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..8000u32 {
            counts[shard_of(HostId::new(i), shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 500,
                "shard {i} starved ({c} of 8000 dense host ids): routing hash is skewed"
            );
        }
    }
}
