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
//! [`DayOutcome`]. Each pushed span goes through two sequential steps that
//! take the pipeline mutably — [`DailyPipeline::admit_names`] judges every
//! name minted since the last span, [`DailyPipeline::warm_dns_folds`] folds
//! the span in record order — after which normalization and chunk
//! reduction only read plain tables, so a caller may run disjoint chunks on
//! parallel workers (see [`DailyPipeline::reduce_dns_records`]) and absorb
//! the results in order with [`DailyPipeline::absorb_chunk`].

use crate::context::DayContext;
use earlybird_intel::WhoisRegistry;
use earlybird_logmodel::{
    DatasetMeta, Day, DhcpLog, DnsQuery, DomainInterner, DomainSym, HostId, ProxyRecord, UaSym,
};
use earlybird_pipeline::{
    normalize_proxy_chunk, reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayIndex,
    DayIndexBuilder, DayReducer, DnsReductionCounts, DomainHistory, FoldTable, NameVerdicts,
    NormalizationCounts, ProxyReductionCounts, ReductionConfig, UaHistory,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

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
    /// Internal-namespace and IP-literal verdicts per raw name, judged
    /// against the dataset's fixed internal suffixes.
    verdicts: NameVerdicts,
    history: DomainHistory,
    ua_history: UaHistory,
}

impl DailyPipeline {
    /// Creates a pipeline over the dataset's raw-name interner.
    pub fn new(raw: Arc<DomainInterner>, cfg: PipelineConfig, meta: &DatasetMeta) -> Self {
        Self::from_restored(
            raw,
            Arc::new(DomainInterner::new()),
            cfg,
            meta,
            DomainHistory::new(),
            UaHistory::new(cfg.rare_ua_threshold),
        )
    }

    /// Reassembles a pipeline from checkpointed state — the persistence
    /// hook used by `earlybird-store` via the engine's restore path. Neither
    /// per-name table is checkpointed: the first push after a restore
    /// judges every restored name and refolds every name it carries, and
    /// because `folded` already holds every folded name in its original
    /// numbering, refolding reproduces identical symbols.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has a zero fold level; the engine validates restored
    /// configurations before calling this.
    pub fn from_restored(
        raw: Arc<DomainInterner>,
        folded: Arc<DomainInterner>,
        cfg: PipelineConfig,
        meta: &DatasetMeta,
        history: DomainHistory,
        ua_history: UaHistory,
    ) -> Self {
        DailyPipeline {
            cfg,
            fold: FoldTable::from_interners(raw, folded, cfg.fold_level),
            verdicts: NameVerdicts::new(ReductionConfig::from_meta(meta)),
            history,
            ua_history,
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

    /// Opens a streaming DNS day. Admit each span's names with
    /// [`DailyPipeline::admit_names`] and fold it with
    /// [`DailyPipeline::warm_dns_folds`], reduce its chunks (on parallel
    /// workers if wanted) with [`DailyPipeline::reduce_dns_records`], absorb
    /// them in order with [`DailyPipeline::absorb_chunk`], then seal with
    /// [`DailyPipeline::finish_day`].
    pub fn begin_dns_day(&self, day: Day, bootstrap: bool) -> DayAccum {
        self.begin_day(day, bootstrap, DaySource::Dns)
    }

    /// Opens a streaming proxy day (see [`DailyPipeline::begin_dns_day`]).
    pub fn begin_proxy_day(&self, day: Day, bootstrap: bool) -> DayAccum {
        self.begin_day(day, bootstrap, DaySource::Proxy)
    }

    fn begin_day(&self, day: Day, bootstrap: bool, source: DaySource) -> DayAccum {
        DayAccum {
            day,
            bootstrap,
            source,
            raw_records: 0,
            reducer: DayReducer::new(),
            builder: (!bootstrap).then(|| DayIndexBuilder::new(day, self.cfg.unpopular_threshold)),
            ua_pairs: HashSet::new(),
            norm: NormalizationCounts::default(),
        }
    }

    /// Judges every raw name interned since the last call — by whoever
    /// interned it — against the dataset's internal suffixes and as an IP
    /// literal. Call it before normalizing or reducing a span: those steps
    /// read the verdicts of the span's destinations. Interns nothing.
    pub fn admit_names(&mut self) {
        self.verdicts.admit(self.fold.raw_interner());
    }

    /// Folds every query's name **sequentially, in record order**, so that
    /// a subsequent parallel reduction of the same records only reads the
    /// memo. This is what keeps folded-symbol numbering deterministic (and
    /// therefore chunk-split invariant): the first fold of each name always
    /// happens here, in arrival order, never in a worker race.
    pub fn warm_dns_folds(&mut self, queries: &[DnsQuery]) {
        for q in queries {
            self.fold.fold(q.qname);
        }
    }

    /// Sequential fold warm-up for normalized proxy records (see
    /// [`DailyPipeline::warm_dns_folds`]).
    pub fn warm_proxy_folds(&mut self, records: &[ProxyRecord]) {
        for r in records {
            self.fold.fold(r.domain);
        }
    }

    /// Reduces one chunk of DNS queries. Takes `&self` only, so disjoint
    /// chunks may run on parallel workers — call
    /// [`DailyPipeline::admit_names`] and [`DailyPipeline::warm_dns_folds`]
    /// over the full record span first, and absorb every result in chunk
    /// order with [`DailyPipeline::absorb_chunk`].
    pub fn reduce_dns_records(&self, queries: &[DnsQuery], meta: &DatasetMeta) -> ChunkReduction {
        reduce_dns_chunk(queries, meta, &self.fold, &self.verdicts)
    }

    /// Normalizes one chunk of raw proxy records (UTC conversion, DHCP/VPN
    /// lease resolution, IP-literal filtering), preserving record order.
    /// Read-only, so chunks may run on parallel workers once the span's
    /// names are admitted; merge the counters with
    /// [`DayAccum::merge_norm`] in chunk order.
    pub fn normalize_proxy_records(
        &self,
        records: &[ProxyRecord],
        dhcp: &DhcpLog,
    ) -> (Vec<ProxyRecord>, NormalizationCounts) {
        normalize_proxy_chunk(records, dhcp, &self.verdicts)
    }

    /// Reduces one chunk of *normalized* proxy records (the parallel-worker
    /// counterpart of [`DailyPipeline::reduce_dns_records`]; warm the folds
    /// with [`DailyPipeline::warm_proxy_folds`] first).
    pub fn reduce_proxy_records(
        &self,
        records: &[ProxyRecord],
        meta: &DatasetMeta,
    ) -> ChunkReduction {
        reduce_proxy_chunk(records, meta, &self.fold, &self.verdicts)
    }

    /// Merges a reduced chunk into the day: counters and surviving domains
    /// into the [`DayReducer`], `(UA, host)` observations into the deferred
    /// user-agent update, and contacts into the [`DayIndexBuilder`]
    /// (operation days only).
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
        if let Some(builder) = &mut accum.builder {
            builder.push_contacts(&chunk.contacts, &self.history, Some(&self.ua_history));
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
            reducer,
            builder,
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
                // A bootstrap day's destinations are exactly the domains
                // that survived every reduction filter.
                let mut domains: Vec<DomainSym> =
                    reducer.domains_after_server().iter().copied().collect();
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
}

/// Which log source a streamed day carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DaySource {
    Dns,
    Proxy,
}

/// In-flight state of one streamed day: reduction counters, the
/// incremental index builder (operation days), and the deferred
/// user-agent update applied at [`DailyPipeline::finish_day`].
///
/// A `DayAccum` holds no borrow of the pipeline, so between chunks the
/// caller can take the pipeline mutably for a span's sequential steps and
/// share it immutably with reduction workers.
#[derive(Debug)]
pub struct DayAccum {
    day: Day,
    bootstrap: bool,
    source: DaySource,
    raw_records: usize,
    reducer: DayReducer,
    builder: Option<DayIndexBuilder>,
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
    use earlybird_logmodel::{DnsDayLog, DnsRecordType, Ipv4, Timestamp};
    use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};

    /// Streams one DNS day through the chunk API the engine drives:
    /// `begin_dns_day`, then per span of `span` records `admit_names` +
    /// `warm_dns_folds`, then per chunk `reduce_dns_records` +
    /// `absorb_chunk`, then `finish_day`.
    fn ingest_dns_day_in_spans(
        pipeline: &mut DailyPipeline,
        day: &DnsDayLog,
        meta: &DatasetMeta,
        bootstrap: bool,
        span: usize,
    ) -> DayOutcome {
        let mut accum = pipeline.begin_dns_day(day.day, bootstrap);
        for span in day.queries.chunks(span) {
            accum.count_raw_records(span.len());
            pipeline.admit_names();
            pipeline.warm_dns_folds(span);
            for chunk in span.chunks(97) {
                let reduced = pipeline.reduce_dns_records(chunk, meta);
                pipeline.absorb_chunk(&mut accum, reduced);
            }
        }
        assert_eq!(accum.records_in(), day.queries.len());
        pipeline.finish_day(accum)
    }

    fn ingest_dns_day(
        pipeline: &mut DailyPipeline,
        day: &DnsDayLog,
        meta: &DatasetMeta,
        bootstrap: bool,
    ) -> DayOutcome {
        ingest_dns_day_in_spans(pipeline, day, meta, bootstrap, usize::MAX)
    }

    fn operation_product(outcome: DayOutcome) -> Box<DayProduct> {
        match outcome {
            DayOutcome::Operation(product) => product,
            DayOutcome::Bootstrap { .. } => panic!("operation day expected"),
        }
    }

    fn lanl_pipeline(raw: &Arc<DomainInterner>, meta: &DatasetMeta) -> DailyPipeline {
        DailyPipeline::new(Arc::clone(raw), PipelineConfig::lanl(), meta)
    }

    #[test]
    fn bootstrap_then_operation_classifies_rares() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let mut pipeline = lanl_pipeline(&challenge.dataset.domains, meta);

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
        let mut pipeline = lanl_pipeline(&challenge.dataset.domains, meta);

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
        let mut pipeline = lanl_pipeline(&challenge.dataset.domains, meta);
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
        let pipeline = lanl_pipeline(&challenge.dataset.domains, &challenge.dataset.meta);
        let a = pipeline.intern_seed("deep.sub.rainbow.c3");
        let b = pipeline.intern_seed("sub.rainbow.c3");
        assert_eq!(a, b, "seeds fold to the pipeline's level");
    }

    #[test]
    fn folded_numbering_is_the_same_for_one_span_and_many() {
        let gen = LanlGenerator::new(LanlConfig::tiny());
        let challenge = gen.generate();
        let meta = &challenge.dataset.meta;
        let days = &challenge.dataset.days[..3];
        let run = |span: usize| {
            let mut pipeline = lanl_pipeline(&challenge.dataset.domains, meta);
            for day in days {
                ingest_dns_day_in_spans(&mut pipeline, day, meta, true, span);
            }
            (pipeline.folded_interner().tail(0), pipeline.history().ordered().to_vec())
        };
        let whole = run(usize::MAX);
        assert!(!whole.0.is_empty());
        for span in [1, 13, 500] {
            assert_eq!(run(span), whole, "span of {span} records");
        }
    }

    #[test]
    fn a_name_interned_after_admission_is_judged_on_the_next_push() {
        let raw = Arc::new(DomainInterner::new());
        let meta = DatasetMeta {
            n_hosts: 2,
            host_kinds: vec![earlybird_logmodel::HostKind::Workstation; 2],
            internal_suffixes: vec![".corp.local".into()],
            bootstrap_days: 0,
            total_days: 1,
        };
        let query = |name: &str| DnsQuery {
            ts: Timestamp::from_secs(5),
            src: HostId::new(0),
            src_ip: Ipv4::new(10, 0, 0, 1),
            qname: raw.intern(name),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(93, 1, 2, 3)),
        };
        let mut pipeline =
            DailyPipeline::new(Arc::clone(&raw), PipelineConfig::enterprise(), &meta);
        let mut accum = pipeline.begin_dns_day(Day::new(0), true);
        let mut push = |pipeline: &mut DailyPipeline, span: &[DnsQuery]| {
            pipeline.admit_names();
            pipeline.warm_dns_folds(span);
            let reduced = pipeline.reduce_dns_records(span, &meta);
            pipeline.absorb_chunk(&mut accum, reduced);
        };
        push(&mut pipeline, &[query("www.nbc.com"), query("mail.corp.local")]);
        // Interned between pushes, as a caller-shared interner may be.
        let late = [query("wiki.corp.local"), query("cdn.evil.ru")];
        push(&mut pipeline, &late);
        let DayOutcome::Bootstrap { dns_counts: Some(counts), .. } = pipeline.finish_day(accum)
        else {
            panic!("bootstrap DNS day expected");
        };
        assert_eq!(counts.domains_all, 3, "nbc.com, corp.local, evil.ru");
        assert_eq!(counts.domains_after_internal_filter, 2, "both corp.local names dropped");
        let history: Vec<String> = pipeline
            .history()
            .ordered()
            .iter()
            .map(|&d| pipeline.folded_interner().resolve(d))
            .collect();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|name| name != "corp.local"), "{history:?}");
    }
}
