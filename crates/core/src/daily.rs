//! Daily pipeline orchestration: the "operation" loop of §III-E.
//!
//! [`DailyPipeline`] owns the cross-day state — domain/UA histories, the
//! fold table, the rare sieve — and turns each raw day batch into a
//! [`DayProduct`]: the reduced contacts indexed for detection, plus every
//! per-step counter the Fig. 2 reproduction needs. Bootstrap days only feed
//! the histories; operation days are compared against the profiles *before*
//! the profiles are updated.
//!
//! Ingestion is streaming-first: [`DailyPipeline::begin_dns_day`] /
//! [`DailyPipeline::begin_proxy_day`] open a [`DayAccum`] that absorbs the
//! day chunk by chunk ("updated incrementally daily" over logs too large to
//! materialize, §III-E), and [`DailyPipeline::finish_day`] seals it into a
//! [`DayOutcome`]. Chunk reduction borrows the pipeline immutably and is
//! thread-safe, so a caller may reduce disjoint chunks on parallel workers
//! (see [`DailyPipeline::reduce_dns_records`]) and absorb the results in
//! order; the whole-day `bootstrap_*` / `process_*` methods remain as the
//! single-chunk reference path.

use crate::context::DayContext;
use earlybird_intel::WhoisRegistry;
use earlybird_logmodel::{
    DatasetMeta, Day, DhcpLog, DnsDayLog, DnsQuery, DomainInterner, DomainSym, HostId, Ipv4,
    ProxyDayLog, ProxyRecord, UaSym,
};
use earlybird_pipeline::{
    normalize_proxy_chunk, normalize_proxy_day, reduce_dns_chunk, reduce_dns_day,
    reduce_proxy_chunk, reduce_proxy_day, ChunkReduction, DayIndex, DayIndexBuilder, DayReducer,
    DnsReductionCounts, DomainHistory, FoldTable, InternalFilter, NormalizationCounts,
    ProxyReductionCounts, RareSieve, ReductionConfig, UaHistory,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Domain fold level (2 for enterprise names, 3 for anonymized LANL).
    pub fold_level: usize,
    /// Rare-destination unpopularity threshold (10 hosts in the paper).
    pub unpopular_threshold: usize,
    /// Rare-UA host threshold (10 hosts in the paper).
    pub rare_ua_threshold: usize,
}

impl PipelineConfig {
    /// Enterprise (AC) configuration: fold to second level.
    pub fn enterprise() -> Self {
        PipelineConfig { fold_level: 2, unpopular_threshold: 10, rare_ua_threshold: 10 }
    }

    /// LANL configuration: fold anonymized names to third level.
    pub fn lanl() -> Self {
        PipelineConfig { fold_level: 3, unpopular_threshold: 10, rare_ua_threshold: 10 }
    }
}

/// The per-day output of the pipeline.
#[derive(Debug)]
pub struct DayProduct {
    /// The processed day.
    pub day: Day,
    /// Index over the day's reduced contacts.
    pub index: DayIndex,
    /// Folded-name interner (shared with the pipeline).
    pub folded: Arc<DomainInterner>,
    /// DNS reduction counters, for DNS days.
    pub dns_counts: Option<DnsReductionCounts>,
    /// Proxy reduction counters, for proxy days.
    pub proxy_counts: Option<ProxyReductionCounts>,
    /// Normalization counters, for proxy days.
    pub norm_counts: Option<NormalizationCounts>,
}

impl DayProduct {
    /// Builds the detector-facing context for this day.
    pub fn context<'a>(
        &'a self,
        whois: Option<&'a WhoisRegistry>,
        whois_defaults: (f64, f64),
    ) -> DayContext<'a> {
        DayContext {
            day: self.day,
            index: &self.index,
            folded: &self.folded,
            whois,
            whois_defaults,
        }
    }
}

/// Cross-day pipeline state.
///
/// Internal plumbing: callers should drive the daily cycle through
/// `earlybird-engine`'s `Engine::ingest_day` instead of calling the
/// `bootstrap_*` / `process_*` methods directly.
#[derive(Debug)]
pub struct DailyPipeline {
    cfg: PipelineConfig,
    fold: FoldTable,
    history: DomainHistory,
    ua_history: UaHistory,
    sieve: RareSieve,
    ip_literal_cache: Mutex<HashMap<DomainSym, bool>>,
}

impl DailyPipeline {
    /// Creates a pipeline over the dataset's raw-name interner.
    pub fn new(raw: Arc<DomainInterner>, cfg: PipelineConfig) -> Self {
        DailyPipeline {
            cfg,
            fold: FoldTable::new(raw, cfg.fold_level),
            history: DomainHistory::new(),
            ua_history: UaHistory::new(cfg.rare_ua_threshold),
            sieve: RareSieve::new(cfg.unpopular_threshold),
            ip_literal_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Reassembles a pipeline from checkpointed state — the persistence
    /// hook used by `earlybird-store` via the engine's restore path. The
    /// fold memo and IP-literal caches start empty and are rebuilt lazily;
    /// because `folded` already holds every folded name in its original
    /// numbering, re-folding reproduces identical symbols.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (zero fold level or thresholds); the
    /// engine validates restored configurations before calling this.
    pub fn from_restored(
        raw: Arc<DomainInterner>,
        folded: Arc<DomainInterner>,
        cfg: PipelineConfig,
        history: DomainHistory,
        ua_history: UaHistory,
    ) -> Self {
        DailyPipeline {
            cfg,
            fold: FoldTable::from_interners(raw, folded, cfg.fold_level),
            history,
            ua_history,
            sieve: RareSieve::new(cfg.unpopular_threshold),
            ip_literal_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Replays a restored tail of the destination-history insertion log
    /// (see `DomainHistory::restore_extend`).
    pub fn restore_history_delta(
        &mut self,
        domains: impl IntoIterator<Item = DomainSym>,
        days_ingested: u32,
    ) {
        self.history.restore_extend(domains, days_ingested);
    }

    /// Replays a restored tail of the user-agent pair log.
    pub fn restore_ua_delta(&mut self, pairs: impl IntoIterator<Item = (UaSym, HostId)>) {
        self.ua_history.update_pairs(pairs);
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The folded-name interner (shared with every [`DayProduct`]).
    pub fn folded_interner(&self) -> &Arc<DomainInterner> {
        self.fold.folded_interner()
    }

    /// Interns a seed domain name (IOC) into the folded namespace.
    pub fn intern_seed(&self, name: &str) -> DomainSym {
        self.fold.intern_folded(name)
    }

    /// The destination history (for inspection).
    pub fn history(&self) -> &DomainHistory {
        &self.history
    }

    /// The UA history (for inspection).
    pub fn ua_history(&self) -> &UaHistory {
        &self.ua_history
    }

    /// Ingests a bootstrap DNS day: reduction + history update, no
    /// detection.
    pub fn bootstrap_dns_day(&mut self, day: &DnsDayLog, meta: &DatasetMeta) -> DnsReductionCounts {
        let cfg = ReductionConfig::from_meta(meta);
        let (contacts, counts) = reduce_dns_day(day, meta, &self.fold, &cfg);
        self.history.update(&contacts);
        self.ua_history.update(&contacts);
        counts
    }

    /// Ingests a bootstrap proxy day.
    pub fn bootstrap_proxy_day(
        &mut self,
        day: &ProxyDayLog,
        dhcp: &DhcpLog,
        meta: &DatasetMeta,
    ) -> (NormalizationCounts, ProxyReductionCounts) {
        let (normalized, norm_counts) =
            normalize_proxy_day(day, dhcp, |r| self.is_ip_literal(r.domain));
        let cfg = ReductionConfig::from_meta(meta);
        let (contacts, counts) = reduce_proxy_day(&normalized, meta, &self.fold, &cfg);
        self.history.update(&contacts);
        self.ua_history.update(&contacts);
        (norm_counts, counts)
    }

    /// Processes an operation DNS day: reduce, extract rares against the
    /// *pre-update* history, index, then update the profiles.
    pub fn process_dns_day(&mut self, day: &DnsDayLog, meta: &DatasetMeta) -> DayProduct {
        let cfg = ReductionConfig::from_meta(meta);
        let (contacts, counts) = reduce_dns_day(day, meta, &self.fold, &cfg);
        let rare = self.sieve.extract(&contacts, &self.history);
        let index = DayIndex::build(day.day, &contacts, rare, Some(&self.ua_history));
        self.history.update(&contacts);
        self.ua_history.update(&contacts);
        DayProduct {
            day: day.day,
            index,
            folded: Arc::clone(self.fold.folded_interner()),
            dns_counts: Some(counts),
            proxy_counts: None,
            norm_counts: None,
        }
    }

    /// Processes an operation proxy day.
    pub fn process_proxy_day(
        &mut self,
        day: &ProxyDayLog,
        dhcp: &DhcpLog,
        meta: &DatasetMeta,
    ) -> DayProduct {
        let (normalized, norm_counts) =
            normalize_proxy_day(day, dhcp, |r| self.is_ip_literal(r.domain));
        let cfg = ReductionConfig::from_meta(meta);
        let (contacts, counts) = reduce_proxy_day(&normalized, meta, &self.fold, &cfg);
        let rare = self.sieve.extract(&contacts, &self.history);
        let index = DayIndex::build(day.day, &contacts, rare, Some(&self.ua_history));
        self.history.update(&contacts);
        self.ua_history.update(&contacts);
        DayProduct {
            day: day.day,
            index,
            folded: Arc::clone(self.fold.folded_interner()),
            dns_counts: None,
            proxy_counts: Some(counts),
            norm_counts: Some(norm_counts),
        }
    }

    // -- streaming ingestion ----------------------------------------------

    /// The raw-name interner the pipeline folds from (needed by callers
    /// that parse log lines directly into the pipeline's namespace).
    pub fn raw_interner(&self) -> &Arc<DomainInterner> {
        self.fold.raw_interner()
    }

    /// Opens a streaming DNS day. Push chunks with
    /// [`DailyPipeline::push_dns_chunk`] (or reduce them on parallel workers
    /// via [`DailyPipeline::reduce_dns_records`] and absorb in order), then
    /// seal with [`DailyPipeline::finish_day`].
    pub fn begin_dns_day(&self, day: Day, meta: &DatasetMeta, bootstrap: bool) -> DayAccum {
        self.begin_day(day, meta, bootstrap, DaySource::Dns)
    }

    /// Opens a streaming proxy day (see [`DailyPipeline::begin_dns_day`]).
    pub fn begin_proxy_day(&self, day: Day, meta: &DatasetMeta, bootstrap: bool) -> DayAccum {
        self.begin_day(day, meta, bootstrap, DaySource::Proxy)
    }

    fn begin_day(
        &self,
        day: Day,
        meta: &DatasetMeta,
        bootstrap: bool,
        source: DaySource,
    ) -> DayAccum {
        DayAccum {
            day,
            bootstrap,
            source,
            raw_records: 0,
            filter: InternalFilter::new(ReductionConfig::from_meta(meta)),
            reducer: DayReducer::new(),
            builder: (!bootstrap).then(|| DayIndexBuilder::new(day, self.sieve.threshold())),
            day_domains: HashSet::new(),
            ua_pairs: HashSet::new(),
            norm: NormalizationCounts::default(),
        }
    }

    /// Pre-interns the folded name of every query **sequentially, in record
    /// order** so that a subsequent parallel reduction of the same records
    /// performs only read-side cache hits. This is what keeps folded-symbol
    /// numbering deterministic (and therefore chunk-split invariant): the
    /// first fold of each name always happens here, in arrival order, never
    /// in a worker race.
    pub fn warm_dns_folds(&self, queries: &[DnsQuery]) {
        for q in queries {
            self.fold.fold(q.qname);
        }
    }

    /// Sequential fold warm-up for normalized proxy records (see
    /// [`DailyPipeline::warm_dns_folds`]).
    pub fn warm_proxy_folds(&self, records: &[ProxyRecord]) {
        for r in records {
            self.fold.fold(r.domain);
        }
    }

    /// Reduces one chunk of DNS queries against the accumulator's per-day
    /// filter state. Takes `&self` and `&DayAccum` only, so disjoint chunks
    /// may run on parallel workers — call [`DailyPipeline::warm_dns_folds`]
    /// over the full record span first, and absorb every result in chunk
    /// order with [`DailyPipeline::absorb_chunk`].
    pub fn reduce_dns_records(
        &self,
        accum: &DayAccum,
        queries: &[DnsQuery],
        meta: &DatasetMeta,
    ) -> ChunkReduction {
        reduce_dns_chunk(queries, meta, &self.fold, &accum.filter)
    }

    /// Normalizes one chunk of raw proxy records (UTC conversion, DHCP/VPN
    /// lease resolution, IP-literal filtering), preserving record order.
    /// Thread-safe; merge the counters with [`DayAccum::merge_norm`] in
    /// chunk order.
    pub fn normalize_proxy_records(
        &self,
        records: &[ProxyRecord],
        dhcp: &DhcpLog,
    ) -> (Vec<ProxyRecord>, NormalizationCounts) {
        normalize_proxy_chunk(records, dhcp, |r| self.is_ip_literal(r.domain))
    }

    /// Reduces one chunk of *normalized* proxy records (the parallel-worker
    /// counterpart of [`DailyPipeline::reduce_dns_records`]).
    pub fn reduce_proxy_records(
        &self,
        accum: &DayAccum,
        records: &[ProxyRecord],
        meta: &DatasetMeta,
    ) -> ChunkReduction {
        reduce_proxy_chunk(records, meta, &self.fold, &accum.filter)
    }

    /// Merges a reduced chunk into the day: counters into the
    /// [`DayReducer`], `(UA, host)` observations into the deferred
    /// user-agent update, and contacts into the [`DayIndexBuilder`]
    /// (operation days) or the deferred history set (bootstrap days).
    ///
    /// Chunks must be absorbed in push order for deterministic counters —
    /// the index itself is order-independent.
    pub fn absorb_chunk(&self, accum: &mut DayAccum, chunk: ChunkReduction) {
        accum.reducer.push_chunk(&chunk);
        for c in &chunk.contacts {
            if let Some(ua) = c.http.and_then(|h| h.ua) {
                accum.ua_pairs.insert((ua, c.host));
            }
        }
        match &mut accum.builder {
            Some(builder) => {
                builder.push_contacts(&chunk.contacts, &self.history, Some(&self.ua_history));
            }
            None => accum.day_domains.extend(chunk.contacts.iter().map(|c| c.domain)),
        }
    }

    /// Merges one shard's day-long accumulation into the canonical
    /// [`DayAccum`] — the deterministic-merge hook behind
    /// `earlybird-engine`'s `ShardedEngine`. The caller must already have
    /// remapped every domain symbol in the partial onto the canonical
    /// folded interner (see [`DayReducer::remap_domains`] /
    /// [`DayIndexBuilder::remap_domains`]); this method only unions.
    ///
    /// Merging is commutative over host-partitioned shards, but callers
    /// merge in shard order anyway so any future order-sensitive state
    /// stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the partial disagrees with the accumulator on bootstrap
    /// mode (one carries an index builder, the other does not).
    pub fn absorb_shard_partial(&self, accum: &mut DayAccum, partial: ShardDayPartial) {
        accum.reducer.merge(partial.reducer);
        accum.ua_pairs.extend(partial.ua_pairs);
        match (&mut accum.builder, partial.builder) {
            (Some(canonical), Some(local)) => canonical.merge(local),
            (None, None) => accum.day_domains.extend(partial.day_domains),
            _ => panic!("shard partial disagrees with the day's bootstrap mode"),
        }
    }

    /// Sequential convenience: reduce + absorb one chunk of DNS queries.
    pub fn push_dns_chunk(&self, accum: &mut DayAccum, queries: &[DnsQuery], meta: &DatasetMeta) {
        accum.raw_records += queries.len();
        let chunk = self.reduce_dns_records(accum, queries, meta);
        self.absorb_chunk(accum, chunk);
    }

    /// Sequential convenience: normalize + reduce + absorb one chunk of raw
    /// proxy records.
    pub fn push_proxy_chunk(
        &self,
        accum: &mut DayAccum,
        records: &[ProxyRecord],
        dhcp: &DhcpLog,
        meta: &DatasetMeta,
    ) {
        accum.raw_records += records.len();
        let (normalized, counts) = self.normalize_proxy_records(records, dhcp);
        accum.merge_norm(&counts);
        let chunk = self.reduce_proxy_records(accum, &normalized, meta);
        self.absorb_chunk(accum, chunk);
    }

    /// Seals a streamed day: finalizes the index (operation days), then —
    /// and only then — folds the day's destinations and user agents into the
    /// cross-day histories, exactly like the whole-day path ("updated at the
    /// end of each day", §IV-A).
    pub fn finish_day(&mut self, accum: DayAccum) -> DayOutcome {
        let DayAccum {
            day,
            bootstrap: _,
            source,
            raw_records: _,
            filter: _,
            reducer,
            builder,
            day_domains,
            ua_pairs,
            norm,
        } = accum;
        let (dns_counts, proxy_counts, norm_counts) = match source {
            DaySource::Dns => (Some(reducer.dns_counts()), None, None),
            DaySource::Proxy => (None, Some(reducer.proxy_counts()), Some(norm)),
        };
        // The histories' insertion logs are checkpointed verbatim, so fold
        // each day's additions in sorted order: set semantics are unchanged
        // and snapshot bytes become run-to-run deterministic.
        let outcome = match builder {
            Some(builder) => {
                let index = builder.finalize();
                self.history.update_domains(index.domains());
                DayOutcome::Operation(Box::new(DayProduct {
                    day,
                    index,
                    folded: Arc::clone(self.fold.folded_interner()),
                    dns_counts,
                    proxy_counts,
                    norm_counts,
                }))
            }
            None => {
                let mut domains: Vec<DomainSym> = day_domains.into_iter().collect();
                domains.sort_unstable();
                self.history.update_domains(domains);
                DayOutcome::Bootstrap { dns_counts, proxy_counts, norm_counts }
            }
        };
        let mut pairs: Vec<(UaSym, HostId)> = ua_pairs.into_iter().collect();
        pairs.sort_unstable();
        self.ua_history.update_pairs(pairs);
        outcome
    }

    /// Whether a raw destination "domain" is an IP literal (§IV-A drops
    /// those); memoized per symbol.
    fn is_ip_literal(&self, raw: DomainSym) -> bool {
        let cache = self.ip_literal_cache.lock().expect("ip-literal cache poisoned");
        if let Some(&v) = cache.get(&raw) {
            return v;
        }
        drop(cache);
        let v = self.fold.raw_interner().with_str(raw, |name| name.parse::<Ipv4>().is_ok());
        self.ip_literal_cache.lock().expect("ip-literal cache poisoned").insert(raw, v);
        v
    }
}

/// Which log source a streamed day carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DaySource {
    Dns,
    Proxy,
}

/// In-flight state of one streamed day: per-day reduction filter and
/// counters, the incremental index builder (operation days), and the
/// deferred history/user-agent updates applied at
/// [`DailyPipeline::finish_day`].
///
/// A `DayAccum` holds no borrow of the pipeline, so the caller can keep
/// pushing chunks while sharing the pipeline immutably with reduction
/// workers.
#[derive(Debug)]
pub struct DayAccum {
    day: Day,
    bootstrap: bool,
    source: DaySource,
    raw_records: usize,
    filter: InternalFilter,
    reducer: DayReducer,
    builder: Option<DayIndexBuilder>,
    day_domains: HashSet<DomainSym>,
    ua_pairs: HashSet<(UaSym, HostId)>,
    norm: NormalizationCounts,
}

impl DayAccum {
    /// The day being streamed.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Whether the day is a bootstrap (profiling-only) day.
    pub fn bootstrap(&self) -> bool {
        self.bootstrap
    }

    /// Whether the accumulator expects DNS records.
    pub fn is_dns(&self) -> bool {
        self.source == DaySource::Dns
    }

    /// Raw records pushed so far (pre-normalization for proxy days).
    pub fn records_in(&self) -> usize {
        self.raw_records
    }

    /// Adds raw (pre-normalization) records to the day's input tally; the
    /// parallel path calls this once per pushed span.
    pub fn count_raw_records(&mut self, n: usize) {
        self.raw_records += n;
    }

    /// Merges one chunk's normalization counters (proxy days).
    pub fn merge_norm(&mut self, counts: &NormalizationCounts) {
        self.norm.merge(counts);
    }
}

/// One shard's contribution to a streamed day, accumulated against a
/// shard-local folded interner and handed to
/// [`DailyPipeline::absorb_shard_partial`] after its domain symbols are
/// remapped onto the canonical table.
///
/// Mirrors the per-shard slice of [`DayAccum`]: reduction counters, the
/// index builder (operation days) or deferred history domains (bootstrap
/// days), and the deferred `(UA, host)` observations. Normalization
/// counters are absent — the sharded proxy path merges those at span level
/// via [`DayAccum::merge_norm`], in arrival order.
#[derive(Debug)]
pub struct ShardDayPartial {
    /// The shard's reduction counters.
    pub reducer: DayReducer,
    /// The shard's index builder (`None` on bootstrap days).
    pub builder: Option<DayIndexBuilder>,
    /// Deferred history domains (bootstrap days only).
    pub day_domains: HashSet<DomainSym>,
    /// Deferred `(UA, host)` observations.
    pub ua_pairs: HashSet<(UaSym, HostId)>,
}

/// What [`DailyPipeline::finish_day`] produced: profile-only counters for a
/// bootstrap day, or the full detector-facing [`DayProduct`] for an
/// operation day.
#[derive(Debug)]
pub enum DayOutcome {
    /// A bootstrap day: the histories were updated, nothing is indexed.
    Bootstrap {
        /// DNS reduction counters, for DNS days.
        dns_counts: Option<DnsReductionCounts>,
        /// Proxy reduction counters, for proxy days.
        proxy_counts: Option<ProxyReductionCounts>,
        /// Normalization counters, for proxy days.
        norm_counts: Option<NormalizationCounts>,
    },
    /// An operation day, indexed and ready for detection (boxed: the index
    /// dwarfs the bootstrap counters).
    Operation(Box<DayProduct>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};

    #[test]
    fn bootstrap_then_operation_classifies_rares() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let mut pipeline =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());

        for day in &challenge.dataset.days[..5] {
            pipeline.bootstrap_dns_day(day, meta);
        }
        assert!(pipeline.history().len() > 50, "history populated");

        let product = pipeline.process_dns_day(&challenge.dataset.days[5], meta);
        assert!(product.index.rare_count() > 0, "fresh domains appear daily");
        let counts = product.dns_counts.unwrap();
        assert!(counts.domains_all >= counts.domains_after_internal_filter);
        assert!(counts.domains_after_internal_filter >= counts.domains_after_server_filter);
        assert!(product.index.rare_count() <= counts.domains_after_server_filter);
    }

    #[test]
    fn campaign_domains_are_rare_on_their_day() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let mut pipeline =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());

        let campaign = &challenge.campaigns[0];
        for day in &challenge.dataset.days {
            if day.day < campaign.day {
                pipeline.bootstrap_dns_day(day, meta);
            }
        }
        let product = pipeline.process_dns_day(challenge.dataset.day(campaign.day).unwrap(), meta);
        for name in campaign.answer_domains() {
            let sym = pipeline.folded_interner().get(name).expect("campaign domain indexed");
            assert!(product.index.is_rare(sym), "{name} must be rare on its campaign day");
        }
    }

    #[test]
    fn context_carries_whois_defaults() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let mut pipeline =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());
        let product = pipeline.process_dns_day(&challenge.dataset.days[0], meta);
        let ctx = product.context(None, (123.0, 456.0));
        let any = product.index.rare_domains().next().expect("some rare domain");
        assert_eq!(ctx.whois_features(any), (123.0, 456.0));
    }

    #[test]
    fn streamed_day_matches_batch_day() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;

        let mut batch =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());
        let mut streamed =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());

        for (i, day) in challenge.dataset.days[..6].iter().enumerate() {
            let bootstrap = i < 5;
            let batch_counts = if bootstrap {
                batch.bootstrap_dns_day(day, meta)
            } else {
                let product = batch.process_dns_day(day, meta);
                product.dns_counts.unwrap()
            };

            let mut accum = streamed.begin_dns_day(day.day, meta, bootstrap);
            for chunk in day.queries.chunks(97) {
                streamed.push_dns_chunk(&mut accum, chunk, meta);
            }
            assert_eq!(accum.records_in(), day.queries.len());
            match streamed.finish_day(accum) {
                DayOutcome::Bootstrap { dns_counts, .. } => {
                    assert!(bootstrap);
                    assert_eq!(dns_counts.unwrap(), batch_counts);
                }
                DayOutcome::Operation(product) => {
                    assert!(!bootstrap);
                    assert_eq!(product.dns_counts.unwrap(), batch_counts);
                    assert!(product.index.rare_count() > 0);
                }
            }
            assert_eq!(streamed.history().len(), batch.history().len(), "day {i}");
            assert_eq!(streamed.history().days_ingested(), batch.history().days_ingested());
        }

        // The operation day's rare sets agree between the two paths.
        let day = &challenge.dataset.days[6];
        let batch_product = batch.process_dns_day(day, meta);
        let mut accum = streamed.begin_dns_day(day.day, meta, false);
        streamed.push_dns_chunk(&mut accum, &day.queries, meta);
        let DayOutcome::Operation(stream_product) = streamed.finish_day(accum) else {
            panic!("operation day expected");
        };
        let mut batch_rare: Vec<DomainSym> = batch_product.index.rare_domains().collect();
        let mut stream_rare: Vec<DomainSym> = stream_product.index.rare_domains().collect();
        batch_rare.sort_unstable();
        stream_rare.sort_unstable();
        assert_eq!(batch_rare, stream_rare);
        assert_eq!(batch_product.index.new_count(), stream_product.index.new_count());
    }

    #[test]
    fn seed_interning_folds() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let pipeline =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());
        let a = pipeline.intern_seed("deep.sub.rainbow.c3");
        let b = pipeline.intern_seed("sub.rainbow.c3");
        assert_eq!(a, b, "seeds fold to the pipeline's level");
    }
}
