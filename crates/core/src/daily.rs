//! Daily pipeline orchestration: the "operation" loop of §III-E.
//!
//! [`DailyPipeline`] owns the cross-day state — domain/UA histories and the
//! fold table — and turns each day's records into a
//! [`DayProduct`]: the reduced contacts indexed for detection, plus every
//! per-step counter the Fig. 2 reproduction needs. Bootstrap days only feed
//! the histories; operation days are compared against the profiles *before*
//! the profiles are updated.
//!
//! Chunks are the only way in: [`DailyPipeline::begin_dns_day`] /
//! [`DailyPipeline::begin_proxy_day`] open a [`DayAccum`] that absorbs the
//! day chunk by chunk ("updated incrementally daily" over logs too large to
//! materialize, §III-E), and [`DailyPipeline::finish_day`] seals it into a
//! [`DayOutcome`]. Chunk reduction borrows the pipeline immutably and is
//! thread-safe, so a caller may reduce disjoint chunks on parallel workers
//! (see [`DailyPipeline::reduce_dns_records`]) and absorb the results in
//! order with [`DailyPipeline::absorb_chunk`].

use crate::context::DayContext;
use earlybird_intel::WhoisRegistry;
use earlybird_logmodel::{
    DatasetMeta, Day, DhcpLog, DnsQuery, DomainInterner, DomainSym, HostId, Ipv4, ProxyRecord,
    UaSym,
};
use earlybird_pipeline::{
    normalize_proxy_chunk, reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayIndex,
    DayIndexBuilder, DayReducer, DnsReductionCounts, DomainHistory, FoldTable, InternalFilter,
    NormalizationCounts, ProxyReductionCounts, ReductionConfig, UaHistory,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
/// `earlybird-engine`'s `Engine::begin_day` (or its `Engine::ingest_day`
/// wrapper) instead of calling the chunk methods directly.
#[derive(Debug)]
pub struct DailyPipeline {
    cfg: PipelineConfig,
    fold: FoldTable,
    history: DomainHistory,
    ua_history: UaHistory,
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
    /// Panics if `cfg` has a zero fold level; the engine validates restored
    /// configurations before calling this.
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

    // -- streaming ingestion ----------------------------------------------

    /// The raw-name interner the pipeline folds from (needed by callers
    /// that parse log lines directly into the pipeline's namespace).
    pub fn raw_interner(&self) -> &Arc<DomainInterner> {
        self.fold.raw_interner()
    }

    /// Opens a streaming DNS day. Reduce chunks (on parallel workers if
    /// wanted) with [`DailyPipeline::reduce_dns_records`], absorb them in
    /// order with [`DailyPipeline::absorb_chunk`], then seal with
    /// [`DailyPipeline::finish_day`].
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
            builder: (!bootstrap).then(|| DayIndexBuilder::new(day, self.cfg.unpopular_threshold)),
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

    /// Seals a streamed day: finalizes the index (operation days), then —
    /// and only then — folds the day's destinations and user agents into the
    /// cross-day histories ("updated at the end of each day", §IV-A).
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
        if let Some(&v) = self.ip_literal_cache().get(&raw) {
            return v;
        }
        let v = self.fold.raw_interner().with_str(raw, |name| name.parse::<Ipv4>().is_ok());
        self.ip_literal_cache().insert(raw, v);
        v
    }

    // The cache only ever gains verdicts of a pure function, each inserted
    // whole, so a holder that panicked left it valid.
    fn ip_literal_cache(&self) -> MutexGuard<'_, HashMap<DomainSym, bool>> {
        self.ip_literal_cache.lock().unwrap_or_else(PoisonError::into_inner)
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
    use earlybird_logmodel::DnsDayLog;
    use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};

    /// Streams one DNS day through the chunk API the engine drives:
    /// `begin_dns_day`, then per chunk `reduce_dns_records` + `absorb_chunk`,
    /// then `finish_day`.
    fn ingest_dns_day(
        pipeline: &mut DailyPipeline,
        day: &DnsDayLog,
        meta: &DatasetMeta,
        bootstrap: bool,
    ) -> DayOutcome {
        let mut accum = pipeline.begin_dns_day(day.day, meta, bootstrap);
        for chunk in day.queries.chunks(97) {
            accum.count_raw_records(chunk.len());
            let reduced = pipeline.reduce_dns_records(&accum, chunk, meta);
            pipeline.absorb_chunk(&mut accum, reduced);
        }
        assert_eq!(accum.records_in(), day.queries.len());
        pipeline.finish_day(accum)
    }

    fn operation_product(outcome: DayOutcome) -> Box<DayProduct> {
        match outcome {
            DayOutcome::Operation(product) => product,
            DayOutcome::Bootstrap { .. } => panic!("operation day expected"),
        }
    }

    #[test]
    fn bootstrap_then_operation_classifies_rares() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let mut pipeline =
            DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());

        for day in &challenge.dataset.days[..5] {
            let outcome = ingest_dns_day(&mut pipeline, day, meta, true);
            assert!(matches!(outcome, DayOutcome::Bootstrap { dns_counts: Some(_), .. }));
        }
        assert!(pipeline.history().len() > 50, "history populated");
        assert_eq!(pipeline.history().days_ingested(), 5);

        let product = operation_product(ingest_dns_day(
            &mut pipeline,
            &challenge.dataset.days[5],
            meta,
            false,
        ));
        assert!(product.index.rare_count() > 0, "fresh domains appear daily");
        let counts = product.dns_counts.unwrap();
        assert_eq!(counts.records_all, challenge.dataset.days[5].queries.len());
        assert!(counts.domains_all >= counts.domains_after_internal_filter);
        assert!(counts.domains_after_internal_filter >= counts.domains_after_server_filter);
        assert!(product.index.rare_count() <= counts.domains_after_server_filter);
        for rare in product.index.rare_domains() {
            assert!(!pipeline.history().is_new(rare), "the day's rares join the history at seal");
        }
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
                ingest_dns_day(&mut pipeline, day, meta, true);
            }
        }
        let day = challenge.dataset.day(campaign.day).unwrap();
        let product = operation_product(ingest_dns_day(&mut pipeline, day, meta, false));
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
        let product = operation_product(ingest_dns_day(
            &mut pipeline,
            &challenge.dataset.days[0],
            meta,
            false,
        ));
        let ctx = product.context(None, (123.0, 456.0));
        let any = product.index.rare_domains().next().expect("some rare domain");
        assert_eq!(ctx.whois_features(any), (123.0, 456.0));
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

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_ip_literal_cache() {
        let raw = Arc::new(DomainInterner::new());
        let literal = raw.intern("8.8.8.8");
        let name = raw.intern("nbc.com");
        let pipeline = DailyPipeline::new(Arc::clone(&raw), PipelineConfig::enterprise());
        assert!(pipeline.is_ip_literal(literal));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = pipeline.ip_literal_cache.lock().unwrap();
                    panic!("normalize worker dies holding the ip-literal cache");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(pipeline.ip_literal_cache.is_poisoned());
        assert!(pipeline.is_ip_literal(literal), "cached verdict survives");
        assert!(!pipeline.is_ip_literal(name), "fresh verdicts still land");
        assert_eq!(pipeline.ip_literal_cache().len(), 2);
    }
}
