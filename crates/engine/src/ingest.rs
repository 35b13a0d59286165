//! Streaming day ingestion: the [`Engine::begin_day`] push handle.
//!
//! The paper's histories are "updated incrementally daily" over billions of
//! log lines (§III-E, §IV-A) — no enterprise deployment can afford to
//! materialize a whole day of parsed records before work starts.
//! [`DayIngest`] is the engine's one ingest path, in constant memory: open
//! a day with [`Engine::begin_day`], feed it any mix of
//! [`DayIngest::push_lines`] / [`DayIngest::push_dns_records`] /
//! [`DayIngest::push_proxy_records`] spans in any chunking, and seal it
//! with [`DayIngest::finish`] to run the detection tail (C&C scoring,
//! alerting, belief propagation). `Engine::ingest_day` pushes a parsed day
//! as one span.
//!
//! The engine runs every step of the day cycle itself, over its own fold
//! table, name verdicts and histories. Each pushed span is split across
//! the engine's `parallelism(n)` workers, the only parallel mechanism
//! ingest has. Parsing, proxy normalization and chunk reduction run in
//! parallel and take no lock: every per-name decision they need is plain
//! data written beforehand by a sequential step with `&mut Engine`. Line
//! parsers share one reader per interner and only look up. The sequential
//! steps, in arrival order, are interning the parsers' misses and
//! assigning host ids for raw DNS lines, both span by span in shard order,
//! name admission (internal and IP-literal verdicts for names interned
//! since the last span), the fold warm-up (first-fold interning of folded
//! names, in record order), and the in-order absorb of each chunk. That
//! order makes every result — alerts, counters, candidate ordering, alert
//! sequence, and every checkpoint byte but the recorded worker count —
//! independent of how the day was chunked and of the worker count.
//!
//! [`DayIngest::try_finish`] closes the day all or nothing: seal the index,
//! run detection on `&Engine` behind one panic boundary, and only then fold
//! the day into the cross-day histories ("updated at the end of each day",
//! §IV-A) and register it. A failed finish applies nothing and discards
//! the day, so pushing it again starts clean.

use crate::builder::EngineError;
use crate::core_loop::{catch_worker_panic, prune_oldest, DayProduct, Engine};
use crate::report::{DayReport, StageCounters};
use earlybird_logmodel::{
    lookup_dns_span, lookup_proxy_span, payload_line, Day, DhcpLog, DnsQuery, DomainSym, HostId,
    ParseLogError, ParsedChunk, ProxyRecord, UaSym,
};
use earlybird_obs::Span;
use earlybird_pipeline::{
    normalize_proxy_chunk, reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayIndex,
    DayIndexBuilder, DayReducer, NormalizationCounts,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Reusable per-worker parse buffers for the raw-line ingest path.
///
/// Line pushes arrive span after span for a whole day; parsing each span
/// into freshly allocated `Vec`s made the allocator a per-span cost. A push
/// takes one cleared [`ParsedChunk`] per shard, which keeps its
/// record/error capacity between spans, and gives it back afterwards, so
/// the pool holds at most the most shards one push used. Purely transient
/// state — never checkpointed.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    dns: Vec<ParsedChunk<DnsQuery>>,
    proxy: Vec<ParsedChunk<ProxyRecord>>,
}

/// Which log source a streamed day reads from.
#[derive(Clone, Copy, Debug)]
pub enum IngestSource<'a> {
    /// DNS query lines/records (the LANL-style source, §V).
    Dns,
    /// Web-proxy lines/records plus the DHCP lease log needed to attribute
    /// dynamic IPs to hosts (the enterprise source, §VI).
    Proxy {
        /// The lease log covering the day.
        dhcp: &'a DhcpLog,
    },
}

impl IngestSource<'_> {
    fn is_dns(&self) -> bool {
        matches!(self, IngestSource::Dns)
    }
}

/// In-flight state of one streamed day: reduction counters, the
/// incremental index builder (operation days only), and the deferred
/// user-agent update applied at the seal.
#[derive(Debug)]
struct DayAccum {
    /// Raw records pushed so far (pre-normalization for proxy days).
    raw_records: usize,
    reducer: DayReducer,
    /// `None` on a bootstrap day, which only feeds the profiles.
    builder: Option<DayIndexBuilder>,
    ua_pairs: HashSet<(UaSym, HostId)>,
    norm: NormalizationCounts,
}

/// Push handle for one streaming day; created by [`Engine::begin_day`].
///
/// Records may be pushed in chunks of any size and (across parallel
/// producers upstream) any arrival order within a chunk; the final
/// [`DayReport`] is identical to ingesting the whole day at once. Replayed
/// days (already ingested) accept pushes as no-ops and return the stored
/// counters with the `duplicate` flag, preserving at-least-once delivery
/// safety.
#[derive(Debug)]
pub struct DayIngest<'e, 'a> {
    engine: &'e mut Engine,
    source: IngestSource<'a>,
    state: DayState,
}

/// An open streaming day detached from the engine borrow: the owned
/// accumulator state of a [`DayIngest`] between pushes.
///
/// [`DayIngest::suspend`] releases the `&mut Engine` borrow without sealing
/// the day; [`Engine::resume_day`] re-attaches the state to push more spans
/// or finish. A service holding many tenants can keep each tenant's open
/// days in a plain map and borrow the engine only for the duration of one
/// request.
#[derive(Debug)]
pub struct DayState {
    day: Day,
    dns: bool,
    /// `None` when the day is a replay (nothing accumulates).
    accum: Option<DayAccum>,
    parse_errors: usize,
    started: Instant,
}

impl DayState {
    /// The day being ingested.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Whether this day was already ingested (pushes are no-ops).
    pub fn is_duplicate(&self) -> bool {
        self.accum.is_none()
    }

    /// Raw records pushed so far.
    pub fn records_pushed(&self) -> usize {
        self.accum.as_ref().map_or(0, |accum| accum.raw_records)
    }

    /// Parse errors accumulated by [`DayIngest::push_lines`] so far.
    pub fn parse_errors(&self) -> usize {
        self.parse_errors
    }
}

impl Engine {
    /// Opens a streaming ingest for `day`. Push records or raw log lines in
    /// chunks, then call [`DayIngest::finish`] to run detection and obtain
    /// the day's report. See [`DayIngest`] for the execution model.
    pub fn begin_day<'a>(&mut self, day: Day, source: IngestSource<'a>) -> DayIngest<'_, 'a> {
        let started = Instant::now();
        // At-least-once delivery safety: re-feeding an already-ingested day
        // must not double-count the cross-day popularity profiles (which
        // would silently push rare destinations over the unpopularity
        // threshold). Replays accumulate nothing.
        let accum = (!self.reports.contains_key(&day)).then(|| {
            let bootstrap = day.index() < self.bootstrap_days();
            DayAccum {
                raw_records: 0,
                reducer: DayReducer::new(),
                builder: (!bootstrap)
                    .then(|| DayIndexBuilder::new(day, self.cfg.pipeline.unpopular_threshold)),
                ua_pairs: HashSet::new(),
                norm: NormalizationCounts::default(),
            }
        });
        let state = DayState { day, dns: source.is_dns(), accum, parse_errors: 0, started };
        DayIngest { engine: self, source, state }
    }

    /// Re-attaches a [`DayState`] produced by [`DayIngest::suspend`] to
    /// continue pushing spans or seal the day.
    ///
    /// # Panics
    ///
    /// Panics if `source` is a different kind (DNS vs proxy) than the one
    /// the day was opened with — mixing sources mid-day would corrupt the
    /// accumulator, same contract as the push methods.
    pub fn resume_day<'a>(
        &mut self,
        state: DayState,
        source: IngestSource<'a>,
    ) -> DayIngest<'_, 'a> {
        assert_eq!(
            state.dns,
            source.is_dns(),
            "day {} resumed with a different source kind than it was opened with",
            state.day
        );
        DayIngest { engine: self, source, state }
    }
}

impl DayIngest<'_, '_> {
    /// The day being ingested.
    pub fn day(&self) -> Day {
        self.state.day
    }

    /// Whether this day was already ingested (pushes are no-ops).
    pub fn is_duplicate(&self) -> bool {
        self.state.is_duplicate()
    }

    /// Whether the day falls in the bootstrap (profiling-only) period.
    pub fn bootstrap(&self) -> bool {
        self.state.day.index() < self.engine.bootstrap_days()
    }

    /// Raw records pushed so far (parsed records for line pushes;
    /// pre-normalization records for proxy pushes).
    pub fn records_pushed(&self) -> usize {
        self.state.records_pushed()
    }

    /// Parse errors accumulated by [`DayIngest::push_lines`] so far.
    pub fn parse_errors(&self) -> usize {
        self.state.parse_errors
    }

    /// Detaches the open day from the engine borrow without sealing it;
    /// re-attach with [`Engine::resume_day`].
    pub fn suspend(self) -> DayState {
        self.state
    }

    /// Pushes a span of DNS queries, splitting it across the engine's
    /// parallel reduce workers.
    ///
    /// # Panics
    ///
    /// Panics if the ingest was opened with a proxy source.
    pub fn push_dns_records(&mut self, records: &[DnsQuery]) {
        assert!(self.source.is_dns(), "DNS records pushed into a proxy-source day");
        let Some(accum) = &mut self.state.accum else { return };
        let cfg = &self.engine.cfg;
        let shards = shard_spans(records, cfg.parallelism, cfg.ingest_chunk_records);
        reduce_dns_spans(self.engine, accum, &shards);
    }

    /// Pushes a span of raw proxy records (normalization — UTC conversion,
    /// lease resolution, IP-literal filtering — happens inside, in
    /// parallel).
    ///
    /// # Panics
    ///
    /// Panics if the ingest was opened with the DNS source.
    pub fn push_proxy_records(&mut self, records: &[ProxyRecord]) {
        let IngestSource::Proxy { dhcp } = self.source else {
            panic!("proxy records pushed into a DNS-source day");
        };
        let Some(accum) = &mut self.state.accum else { return };
        let cfg = &self.engine.cfg;
        let shards = shard_spans(records, cfg.parallelism, cfg.ingest_chunk_records);
        reduce_proxy_spans(self.engine, accum, &shards, dhcp);
    }

    /// Pushes a block of raw log lines in the tab-separated interchange
    /// format of `earlybird_logmodel::codec` (empty lines and `#` comments
    /// are skipped). Lines are parsed on the worker pool — no per-line
    /// `String` allocation — and the names they did not find are interned
    /// afterwards in line order; the parsed records then flow through the
    /// same chunked reduce path as record pushes.
    ///
    /// Returns this block's parse failures as `(1-based line number within
    /// the block, error)`; they are also tallied in the day report's
    /// `parse_errors` counter.
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
                let cfg = &self.engine.cfg;
                let shards = shard_spans(&lines, cfg.parallelism, cfg.ingest_chunk_records);
                // Each shard is parsed as one span into a pooled scratch
                // buffer whose record vectors keep their capacity across
                // pushes. Workers share one reader and only look up.
                let pool = &mut self.engine.scratch.dns;
                let mut chunks = pool.split_off(pool.len().saturating_sub(shards.len()));
                chunks.resize_with(shards.len(), ParsedChunk::default);
                let engine = &*self.engine;
                let parse_span = engine.metrics.parse.start();
                let domains = engine.fold.raw_interner();
                let misses = {
                    let reader = domains.reader();
                    map_shards(shards.iter().zip(chunks.iter_mut()), |(shard, chunk)| {
                        lookup_dns_span(shard.iter().copied(), &reader, chunk)
                    })
                };
                // Symbols and host ids both number by first sight: intern
                // the misses, then assign hosts, span by span in shard order.
                for (chunk, misses) in chunks.iter_mut().zip(misses) {
                    misses.intern_dns(self.engine.fold.raw_interner(), chunk);
                    self.engine.line_hosts.assign(&mut chunk.records);
                    errors.append(&mut chunk.errors);
                }
                parse_span.finish();
                let spans: Vec<&[DnsQuery]> = chunks.iter().map(|c| c.records.as_slice()).collect();
                if let Some(accum) = &mut self.state.accum {
                    reduce_dns_spans(self.engine, accum, &spans);
                }
                drop(spans);
                self.engine.scratch.dns.extend(chunks.into_iter().map(|mut c| {
                    c.clear();
                    c
                }));
            }
            IngestSource::Proxy { dhcp } => {
                let cfg = &self.engine.cfg;
                let shards = shard_spans(&lines, cfg.parallelism, cfg.ingest_chunk_records);
                let pool = &mut self.engine.scratch.proxy;
                let mut chunks = pool.split_off(pool.len().saturating_sub(shards.len()));
                chunks.resize_with(shards.len(), ParsedChunk::default);
                let engine = &*self.engine;
                let parse_span = engine.metrics.parse.start();
                let (domains, uas, paths) =
                    (engine.fold.raw_interner(), &engine.uas, &engine.paths);
                let misses = {
                    let readers = (domains.reader(), uas.reader(), paths.reader());
                    map_shards(shards.iter().zip(chunks.iter_mut()), |(shard, chunk)| {
                        let (domains, uas, paths) = &readers;
                        lookup_proxy_span(shard.iter().copied(), domains, uas, paths, chunk)
                    })
                };
                for (chunk, misses) in chunks.iter_mut().zip(misses) {
                    misses.intern_proxy(domains, uas, paths, chunk);
                    errors.append(&mut chunk.errors);
                }
                parse_span.finish();
                let spans: Vec<&[ProxyRecord]> =
                    chunks.iter().map(|c| c.records.as_slice()).collect();
                if let Some(accum) = &mut self.state.accum {
                    reduce_proxy_spans(self.engine, accum, &spans, dhcp);
                }
                drop(spans);
                self.engine.scratch.proxy.extend(chunks.into_iter().map(|mut c| {
                    c.clear();
                    c
                }));
            }
        }
        errors.sort_by_key(|(lineno, _)| *lineno);
        self.state.parse_errors += errors.len();
        self.engine.metrics.parse_errors.add(errors.len() as u64);
        errors
    }

    /// Seals the day: finalizes the incremental index, (for operation days)
    /// runs the detection tail — C&C scoring, alerting, optional
    /// belief-propagation expansion — and only then folds the day into the
    /// cross-day histories and appends its alerts to the alert log.
    ///
    /// # Panics
    ///
    /// Panics if the detection tail fails; use [`DayIngest::try_finish`]
    /// for the typed-error path.
    pub fn finish(self) -> DayReport {
        self.try_finish().unwrap_or_else(|e| panic!("daily cycle failed: {e}"))
    }

    /// [`DayIngest::finish`] with runtime faults surfaced as typed
    /// [`EngineError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] when the detection tail panics, on
    /// either scoring path. The engine is left exactly as after the last
    /// push and the day is discarded — neither registered nor open.
    pub fn try_finish(self) -> Result<DayReport, EngineError> {
        let DayIngest { engine, state, .. } = self;
        let DayState { day, dns, accum, parse_errors, started } = state;
        let Some(accum) = accum else {
            let mut replay =
                engine.reports.get(&day).cloned().expect("duplicate day must have a stored report");
            replay.duplicate = true;
            return Ok(replay);
        };
        let mut report = DayReport {
            day,
            bootstrap: accum.builder.is_none(),
            stages: StageCounters {
                records_in: accum.raw_records,
                parse_errors,
                ..StageCounters::default()
            },
            dns_counts: dns.then(|| accum.reducer.dns_counts()),
            proxy_counts: (!dns).then(|| accum.reducer.proxy_counts()),
            norm_counts: (!dns).then_some(accum.norm),
            ..DayReport::default()
        };
        engine.fill_reduction_counters(&mut report);
        let (index, additions) = {
            let _profile_span = engine.metrics.profile.start();
            accum.seal()
        };
        engine.record_interner_shape();
        let product = index.map(|index| DayProduct {
            index,
            dns_counts: report.dns_counts,
            proxy_counts: report.proxy_counts,
            norm_counts: report.norm_counts,
        });
        if let Some(product) = &product {
            report = catch_worker_panic(|| engine.run_detection_tail(report, product))?;
        }
        Ok(engine.close_day(report, product, additions, started))
    }
}

/// A sealed day's contributions to the cross-day histories, sorted and not
/// yet applied. An operation day's destinations are its index's (sorted)
/// domains, so only a bootstrap day collects them here.
#[derive(Debug)]
struct DayAdditions {
    bootstrap_domains: Vec<DomainSym>,
    ua_pairs: Vec<(UaSym, HostId)>,
}

impl DayAccum {
    /// Seals a streamed day: finalizes the index (operation days) and
    /// collects the day's history additions, applying nothing. The
    /// histories' insertion logs are checkpointed verbatim, so additions
    /// are sorted: snapshot bytes are run-to-run deterministic.
    fn seal(self) -> (Option<DayIndex>, DayAdditions) {
        let DayAccum { reducer, builder, ua_pairs, .. } = self;
        let index = builder.map(DayIndexBuilder::finalize);
        // A bootstrap day's destinations are exactly the domains that
        // survived every reduction filter.
        let mut bootstrap_domains: Vec<DomainSym> = match &index {
            Some(_) => Vec::new(),
            None => reducer.domains_after_server().iter().copied().collect(),
        };
        bootstrap_domains.sort_unstable();
        let mut ua_pairs: Vec<(UaSym, HostId)> = ua_pairs.into_iter().collect();
        ua_pairs.sort_unstable();
        (index, DayAdditions { bootstrap_domains, ua_pairs })
    }
}

impl Engine {
    /// Merges a reduced chunk into the day: counters and surviving domains
    /// into the reducer, `(UA, host)` observations into the deferred
    /// user-agent update, and contacts into the index builder (operation
    /// days only). Chunks must be absorbed in push order for deterministic
    /// counters; the index itself is order-independent.
    fn absorb_chunk(&self, accum: &mut DayAccum, chunk: ChunkReduction) {
        accum.reducer.push_chunk(&chunk);
        for c in &chunk.contacts {
            if let Some(ua) = c.http.and_then(|h| h.ua) {
                accum.ua_pairs.insert((ua, c.host));
            }
        }
        if let Some(builder) = &mut accum.builder {
            builder.push_contacts(&chunk.contacts, &self.history, Some(&self.ua_history));
        }
    }

    /// The one step of a finish that cannot fail, for bootstrap and
    /// operation days alike: applies the day's history additions, numbers
    /// its alerts, stores its counters-only report (the replay guard) and
    /// retains its product within the window.
    fn close_day(
        &mut self,
        mut report: DayReport,
        product: Option<DayProduct>,
        additions: DayAdditions,
        started: Instant,
    ) -> DayReport {
        {
            let _profile_span = self.metrics.profile.start();
            match &product {
                Some(product) => self.history.update_domains(product.index.domains()),
                None => self.history.update_domains(additions.bootstrap_domains),
            }
            self.ua_history.update_pairs(additions.ua_pairs);
        }
        self.assign_and_emit(&mut report.alerts);
        report.stages.wall_micros = started.elapsed().as_micros() as u64;
        self.reports.insert(report.day, Engine::counters_only(&report));
        if let Some(product) = product {
            self.products.insert(report.day, Arc::new(product));
            prune_oldest(&mut self.products, self.cfg.retain_days);
        }
        report
    }
}

/// Counts and reduces one pushed span of DNS queries, pre-split into
/// worker shards: sequential name admission and fold warm-up in record
/// order (folded-symbol numbering must never race), parallel chunk
/// reduction, in-order absorption.
fn reduce_dns_spans(engine: &mut Engine, accum: &mut DayAccum, spans: &[&[DnsQuery]]) {
    let _reduce_span = begin_reduce(engine, accum, spans);
    let names_span = engine.metrics.reduce_names.start();
    for q in spans.iter().flat_map(|span| span.iter()) {
        engine.fold.fold(q.qname);
    }
    names_span.finish();
    let engine = &*engine;
    let chunk_span = engine.metrics.reduce_chunk.start();
    let reductions = map_shards(spans.iter(), |span| {
        reduce_dns_chunk(span, &engine.meta, &engine.fold, &engine.verdicts)
    });
    chunk_span.finish();
    let _absorb_span = engine.metrics.reduce_absorb.start();
    for chunk in reductions {
        engine.absorb_chunk(accum, chunk);
    }
}

/// Counts and reduces one pushed span of raw proxy records, pre-split into
/// worker shards: sequential name admission, parallel normalization and
/// in-order counter merge, sequential fold warm-up over the surviving
/// records, parallel chunk reduction, in-order absorption.
fn reduce_proxy_spans(
    engine: &mut Engine,
    accum: &mut DayAccum,
    spans: &[&[ProxyRecord]],
    dhcp: &DhcpLog,
) {
    let _reduce_span = begin_reduce(engine, accum, spans);
    let normalize_span = engine.metrics.reduce_normalize.start();
    let shared = &*engine;
    let normalized =
        map_shards(spans.iter(), |span| normalize_proxy_chunk(span, dhcp, &shared.verdicts));
    for (_, counts) in &normalized {
        accum.norm.merge(counts);
    }
    normalize_span.finish();
    let names_span = engine.metrics.reduce_names.start();
    for r in normalized.iter().flat_map(|(records, _)| records) {
        engine.fold.fold(r.domain);
    }
    names_span.finish();
    let engine = &*engine;
    let chunk_span = engine.metrics.reduce_chunk.start();
    let reductions = map_shards(normalized.iter(), |(records, _)| {
        reduce_proxy_chunk(records, &engine.meta, &engine.fold, &engine.verdicts)
    });
    chunk_span.finish();
    let _absorb_span = engine.metrics.reduce_absorb.start();
    for chunk in reductions {
        engine.absorb_chunk(accum, chunk);
    }
}

/// Tallies a pushed span's records, starts its `reduce` stage span, and
/// admits every name interned since the last push.
fn begin_reduce<T>(engine: &mut Engine, accum: &mut DayAccum, spans: &[&[T]]) -> Span {
    let records: usize = spans.iter().map(|span| span.len()).sum();
    accum.raw_records += records;
    engine.metrics.records.add(records as u64);
    let reduce_span = engine.metrics.reduce.start();
    let _names_span = engine.metrics.reduce_names.start();
    engine.verdicts.admit(engine.fold.raw_interner());
    reduce_span
}

/// Splits a span into at most `workers` contiguous shards of at least
/// `chunk_records` items each (short spans stay whole — thread spawn would
/// dominate).
fn shard_spans<T>(items: &[T], workers: usize, chunk_records: usize) -> Vec<&[T]> {
    if items.is_empty() {
        return Vec::new();
    }
    let shards = workers.clamp(1, items.len().div_ceil(chunk_records.max(1)));
    items.chunks(items.len().div_ceil(shards)).collect()
}

/// Maps `f` over the items — shards, or `(shard, scratch buffer)` pairs —
/// on scoped threads, one per item, preserving item order; a single item
/// runs inline.
fn map_shards<I: Send, R: Send>(
    items: impl ExactSizeIterator<Item = I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    if items.len() <= 1 {
        return items.map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        handles.into_iter().map(|h| h.join().expect("ingest worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spans_respects_worker_and_chunk_bounds() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(shard_spans(&items, 4, 10).len(), 4, "enough records for every worker");
        assert_eq!(shard_spans(&items, 4, 60).len(), 2, "chunk floor limits shard count");
        assert_eq!(shard_spans(&items, 1, 10).len(), 1);
        assert_eq!(shard_spans(&items, 4, 1000).len(), 1, "short spans stay whole");
        assert!(shard_spans::<u32>(&[], 4, 10).is_empty());
        // Shards are a partition in order.
        let shards = shard_spans(&items, 3, 5);
        let rejoined: Vec<u32> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(rejoined, items);
    }

    #[test]
    fn map_shards_preserves_order() {
        let items: Vec<u32> = (0..64).collect();
        let shards = shard_spans(&items, 4, 4);
        let sums = map_shards(shards.iter(), |s| s.iter().sum::<u32>());
        let expected: Vec<u32> = shards.iter().map(|s| s.iter().sum()).collect();
        assert_eq!(sums, expected);
    }
}
