//! The engine itself: state, the daily ingest cycle, and investigations.

use crate::alert::{Alert, CollectedAlerts, Verdict};
use crate::batch::DayBatch;
use crate::builder::{EngineConfig, EngineError};
use crate::ingest::IngestSource;
use crate::metrics::EngineMetrics;
use crate::report::{CcCandidate, DayReport, InvestigationReport};
use earlybird_core::{belief_propagation, CcDetector, DayContext, Seeds};
use earlybird_logmodel::{
    fold_domain, DatasetMeta, Day, DomainInterner, DomainSym, HostId, HostMapper, PathInterner,
    UaInterner,
};
use earlybird_obs::MetricsRegistry;
use earlybird_pipeline::{
    DayIndex, DnsReductionCounts, DomainHistory, FoldTable, NameVerdicts, NormalizationCounts,
    ProxyReductionCounts, ReductionConfig, UaHistory,
};
use earlybird_timing::{AutomationDetector, AutomationEvidence};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Seed selection for an [`Investigation`].
#[derive(Clone, Debug)]
pub enum SeedSpec {
    /// SOC hint hosts (LANL cases 1–3).
    Hosts(Vec<HostId>),
    /// Seed domains, already folded.
    Domains(Vec<DomainSym>),
    /// Seed domain names (folded by the engine; names absent from the day
    /// are harmless).
    Names(Vec<String>),
    /// The day's C&C detections under the engine's current model (no-hint
    /// mode).
    TodaysDetections,
}

/// A belief-propagation request against one retained day.
#[derive(Clone, Debug)]
pub struct Investigation {
    seeds: SeedSpec,
    sim_threshold: Option<f64>,
    count_seeds: bool,
}

impl Investigation {
    /// SOC-hints mode from known compromised hosts; hints are not
    /// re-counted as detections.
    pub fn from_hint_hosts(hosts: impl IntoIterator<Item = HostId>) -> Self {
        Investigation {
            seeds: SeedSpec::Hosts(hosts.into_iter().collect()),
            sim_threshold: None,
            count_seeds: false,
        }
    }

    /// SOC-hints mode from seed domains (IOC symbols); seeds are not
    /// re-counted as detections.
    pub fn from_seed_domains(domains: impl IntoIterator<Item = DomainSym>) -> Self {
        Investigation {
            seeds: SeedSpec::Domains(domains.into_iter().collect()),
            sim_threshold: None,
            count_seeds: false,
        }
    }

    /// SOC-hints mode from seed domain names.
    pub fn from_seed_names<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> Self {
        Investigation {
            seeds: SeedSpec::Names(names.into_iter().map(Into::into).collect()),
            sim_threshold: None,
            count_seeds: false,
        }
    }

    /// No-hint mode: today's C&C detections seed the expansion and count
    /// as detections themselves.
    pub fn no_hint() -> Self {
        Investigation { seeds: SeedSpec::TodaysDetections, sim_threshold: None, count_seeds: true }
    }

    /// Overrides the similarity threshold `T_s` for this run only (the SOC
    /// capacity knob of §VI).
    pub fn sim_threshold(mut self, threshold: f64) -> Self {
        self.sim_threshold = Some(threshold);
        self
    }

    /// Overrides whether seeds count as detections.
    pub fn count_seeds(mut self, count: bool) -> Self {
        self.count_seeds = count;
        self
    }
}

/// A retained operation day: its contact index plus the reduction
/// counters the store persists beside it.
#[derive(Debug)]
pub(crate) struct DayProduct {
    pub(crate) index: DayIndex,
    pub(crate) dns_counts: Option<DnsReductionCounts>,
    pub(crate) proxy_counts: Option<ProxyReductionCounts>,
    pub(crate) norm_counts: Option<NormalizationCounts>,
}

/// Evicts the oldest retained contact indexes (the dominant memory cost)
/// until at most `keep` remain, if a window is set; their counters-only
/// reports stay. Returns how many days were pruned. The one retention
/// step: live days, restored blocks and store compaction all end in it.
pub(crate) fn prune_oldest(
    products: &mut BTreeMap<Day, Arc<DayProduct>>,
    keep: Option<usize>,
) -> usize {
    let Some(keep) = keep else { return 0 };
    let mut pruned = 0;
    while products.len() > keep {
        products.pop_first();
        pruned += 1;
    }
    pruned
}

/// The unified streaming engine: feed daily [`DayBatch`]es (or stream a day
/// chunk by chunk through [`Engine::begin_day`]), receive typed
/// [`DayReport`]s and [`Alert`]s; see the crate docs for the full tour.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) meta: DatasetMeta,
    /// Raw → folded name memo over the raw and folded domain interners.
    pub(crate) fold: FoldTable,
    /// Internal-namespace and IP-literal verdicts per raw name, judged
    /// against the dataset's fixed internal suffixes.
    pub(crate) verdicts: NameVerdicts,
    /// The cross-day destination profile, "updated at the end of each
    /// day" (§IV-A).
    pub(crate) history: DomainHistory,
    /// The cross-day user-agent profile.
    pub(crate) ua_history: UaHistory,
    /// Retained operation-day products. `Arc`-shared so a frozen
    /// `EngineSnapshot` can carry the same immutable products a background
    /// checkpoint serializes while ingestion keeps inserting new days.
    pub(crate) products: BTreeMap<Day, Arc<DayProduct>>,
    pub(crate) reports: BTreeMap<Day, DayReport>,
    /// The attached alert log, if any (see
    /// [`crate::EngineBuilder::alert_log`]).
    pub(crate) alert_log: Option<CollectedAlerts>,
    pub(crate) sequence: AtomicU64,
    /// Watermarks of the state already persisted by `checkpoint` /
    /// `checkpoint_day` (see the `persist` module). Behind its own lock so
    /// checkpoints run on `&self`: a snapshot in flight never blocks the
    /// read paths (reports / alerts / investigate) of a shared engine.
    pub(crate) persist_cursor: Mutex<crate::persist::PersistCursor>,
    pub(crate) soc_seed_syms: Vec<DomainSym>,
    /// Interner for user agents parsed from raw proxy log lines.
    pub(crate) uas: Arc<UaInterner>,
    /// Interner for URL paths parsed from raw proxy log lines.
    pub(crate) paths: Arc<PathInterner>,
    /// Stable host-id assignment for raw DNS log lines, shared across days.
    pub(crate) line_hosts: HostMapper,
    /// Pooled parse buffers for the raw-line ingest path (transient).
    pub(crate) scratch: crate::ingest::ScratchPool,
    /// Cached handles into the attached metrics registry (see
    /// [`crate::EngineBuilder::metrics`]); pure side-band observability,
    /// never persisted, never consulted by detection.
    pub(crate) metrics: EngineMetrics,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("days_retained", &self.products.len())
            .field("parallelism", &self.cfg.parallelism)
            .finish()
    }
}

impl Engine {
    /// An engine with empty state: no days, empty histories and a fresh
    /// folded namespace. A build starts from it as it is; a restore thaws
    /// a whole chain's tables into it, one move or bulk load per table (see
    /// the `persist` module). Either way SOC seeds are interned by the
    /// caller once the folded namespace holds what it should (see
    /// [`Engine::reintern_soc_seeds`]).
    pub(crate) fn new(
        cfg: EngineConfig,
        alert_log: Option<CollectedAlerts>,
        raw: Arc<DomainInterner>,
        meta: DatasetMeta,
        uas: Option<Arc<UaInterner>>,
        paths: Option<Arc<PathInterner>>,
        metrics: EngineMetrics,
    ) -> Self {
        Engine {
            fold: FoldTable::new(raw, cfg.pipeline.fold_level),
            verdicts: NameVerdicts::new(ReductionConfig::from_meta(&meta)),
            history: DomainHistory::new(),
            ua_history: UaHistory::new(cfg.pipeline.rare_ua_threshold),
            cfg,
            meta,
            products: BTreeMap::new(),
            reports: BTreeMap::new(),
            alert_log,
            sequence: AtomicU64::new(0),
            persist_cursor: Mutex::new(crate::persist::PersistCursor::default()),
            soc_seed_syms: Vec::new(),
            uas: uas.unwrap_or_default(),
            paths: paths.unwrap_or_default(),
            line_hosts: HostMapper::new(),
            scratch: crate::ingest::ScratchPool::default(),
            metrics,
        }
    }

    /// Re-interns the configured SOC seed names into the folded namespace:
    /// once at build, and after a restore's thaw (interning earlier would
    /// shift the restored numbering).
    pub(crate) fn reintern_soc_seeds(&mut self) {
        self.soc_seed_syms =
            self.cfg.soc_seed_domains.iter().map(|n| self.fold.intern_folded(n)).collect();
    }

    // -- accessors ---------------------------------------------------------

    /// The validated configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The dataset metadata the engine was built over.
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    /// The metrics registry this engine records into — the one attached
    /// via [`crate::EngineBuilder::metrics`], or a private enabled
    /// registry otherwise. Snapshot it (or render it) at any time without
    /// stopping ingestion.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// First day treated as an operation (detection) day.
    pub fn bootstrap_days(&self) -> u32 {
        self.cfg.bootstrap_days.unwrap_or(self.meta.bootstrap_days)
    }

    /// Retained operation days.
    ///
    /// **Ordering guarantee:** days are yielded strictly ascending by day
    /// index, regardless of ingestion order. Callers may rely on this (it
    /// is part of the API, not an accident of the underlying map).
    pub fn days(&self) -> impl Iterator<Item = Day> + '_ {
        self.products.keys().copied()
    }

    /// The stored report for an ingested day (bootstrap days included).
    ///
    /// Stored reports carry the per-stage counters only; the heavy
    /// payloads (scored candidates, alerts, BP traces) live in the
    /// [`DayReport`] returned by [`Engine::ingest_day`] and are not
    /// retained. Use [`Engine::cc_scores`] to recompute candidates for a
    /// retained day.
    pub fn report(&self, day: Day) -> Option<&DayReport> {
        self.reports.get(&day)
    }

    /// All stored (counters-only) reports.
    ///
    /// **Ordering guarantee:** reports are yielded strictly ascending by
    /// day index, regardless of ingestion order — the same documented
    /// guarantee as [`Engine::days`].
    pub fn reports(&self) -> impl Iterator<Item = &DayReport> {
        self.reports.values()
    }

    /// The sequence number the next emitted alert will carry. Survives
    /// checkpoint/restore, so alert cursors handed to consumers stay
    /// monotone across restarts even though alert logs start over empty.
    pub fn next_alert_sequence(&self) -> u64 {
        self.sequence.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The contact index of a retained operation day.
    pub fn day_index(&self, day: Day) -> Option<&DayIndex> {
        self.products.get(&day).map(|p| &p.index)
    }

    /// The detector-facing context of a retained operation day.
    pub fn context(&self, day: Day) -> Option<DayContext<'_>> {
        self.products.get(&day).map(|p| self.context_of(p))
    }

    /// The detector-facing context of a sealed day's product.
    pub(crate) fn context_of<'a>(&'a self, product: &'a DayProduct) -> DayContext<'a> {
        DayContext {
            day: product.index.day(),
            index: &product.index,
            folded: self.fold.folded_interner(),
            whois: self.cfg.whois.as_ref(),
            whois_defaults: self.cfg.whois_defaults,
        }
    }

    /// The folded-name interner shared with every retained day.
    pub fn folded(&self) -> &Arc<DomainInterner> {
        self.fold.folded_interner()
    }

    /// Resolves a folded domain symbol to its name.
    pub fn resolve(&self, domain: DomainSym) -> String {
        self.fold.folded_interner().resolve(domain)
    }

    /// Interns a domain name into the folded namespace (for seeds).
    pub fn intern_domain(&self, name: &str) -> DomainSym {
        self.fold.intern_folded(name)
    }

    /// The cross-day destination history (profiles).
    pub fn history(&self) -> &DomainHistory {
        &self.history
    }

    /// The cross-day user-agent history.
    pub fn ua_history(&self) -> &UaHistory {
        &self.ua_history
    }

    /// The `(DomAge, DomValidity)` defaults currently in force.
    pub fn whois_defaults(&self) -> (f64, f64) {
        self.cfg.whois_defaults
    }

    /// The user-agent interner used when parsing raw proxy log lines
    /// (dataset-driven callers can install their own via
    /// [`crate::EngineBuilder::proxy_interners`]).
    pub fn ua_interner(&self) -> &Arc<UaInterner> {
        &self.uas
    }

    /// The URL-path interner used when parsing raw proxy log lines.
    pub fn path_interner(&self) -> &Arc<PathInterner> {
        &self.paths
    }

    pub(crate) fn set_whois_defaults(&mut self, defaults: (f64, f64)) {
        self.cfg.whois_defaults = defaults;
        self.mark_config_changed();
    }

    pub(crate) fn set_models(
        &mut self,
        cc_model: earlybird_core::CcModel,
        sim: earlybird_core::SimScorer,
    ) {
        self.cfg.cc_model = cc_model;
        self.cfg.sim = sim;
        self.mark_config_changed();
    }

    pub(crate) fn operation_products(&self) -> &BTreeMap<Day, Arc<DayProduct>> {
        &self.products
    }

    fn detector(&self) -> CcDetector {
        CcDetector::new(self.cfg.automation, self.cfg.cc_model.clone())
    }

    // -- the daily cycle ---------------------------------------------------

    /// Ingests one day: bootstrap days update the profiles only; operation
    /// days run the full reduce → profile → rare-sieve → C&C →
    /// (optional) belief-propagation cycle, emit alerts, and are retained
    /// for later [`Engine::investigate`] calls.
    ///
    /// This is a thin wrapper over the streaming path: the whole batch is
    /// pushed through [`Engine::begin_day`] as one span (which the ingest
    /// handle parallelizes into parse+reduce chunks internally), so batch
    /// and chunked callers exercise identical machinery. Feeding a day in
    /// pieces via [`Engine::begin_day`] yields the same [`DayReport`].
    ///
    /// # Panics
    ///
    /// Panics if the detection tail fails; use [`Engine::try_ingest_day`]
    /// for the typed-error path.
    pub fn ingest_day(&mut self, batch: DayBatch<'_>) -> DayReport {
        self.try_ingest_day(batch).unwrap_or_else(|e| panic!("daily cycle failed: {e}"))
    }

    /// [`Engine::ingest_day`] with runtime faults surfaced as typed
    /// [`EngineError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] when the detection tail panics; the
    /// engine is left as it was and the day is not ingested, so it can be
    /// fed again — see [`crate::DayIngest::try_finish`].
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

    /// The detection half of the daily cycle, run on every sealed
    /// operation day before anything is applied: C&C scoring, alerting
    /// (numbered by the close) and optional belief-propagation expansion.
    /// It reads the day's index, never the histories.
    pub(crate) fn run_detection_tail(
        &self,
        mut report: DayReport,
        product: &DayProduct,
    ) -> DayReport {
        let day = report.day;
        report.stages.new_destinations = product.index.new_count();
        report.stages.rare_destinations = product.index.rare_count();

        // C&C stage: score every rare domain, sharded across workers.
        let ctx = self.context_of(product);
        let detector = self.detector();
        let candidates = {
            let _cc_span = self.metrics.cc.start();
            self.score_rare_domains(&ctx, &detector)
        };
        report.stages.automated_domains = candidates.len();
        report.stages.cc_detections = candidates.iter().filter(|c| c.detected).count();

        let mut alerts = Vec::new();
        for c in candidates.iter().filter(|c| c.detected) {
            alerts.push(Alert {
                sequence: 0,
                day,
                domain: c.domain,
                name: c.name.clone(),
                score: c.score,
                verdict: Verdict::CommandAndControl,
                iteration: 0,
                period_secs: c.period_secs,
                hosts: ctx.index.hosts_of(c.domain).map(<[HostId]>::to_vec).unwrap_or_default(),
            });
        }

        // Optional belief-propagation expansion from today's detections
        // plus any SOC seeds that appear today.
        if self.cfg.auto_investigate {
            let mut seed_domains: Vec<DomainSym> =
                candidates.iter().filter(|c| c.detected).map(|c| c.domain).collect();
            let soc_present: Vec<DomainSym> = self
                .soc_seed_syms
                .iter()
                .copied()
                .filter(|&d| {
                    ctx.index.connectivity(d) > 0 && !seed_domains.contains(&d) // not already alerted as C&C
                })
                .collect();
            // A live IOC hit is alert-worthy on its own, before any
            // expansion (the C&C detections were alerted above already).
            for &d in &soc_present {
                alerts.push(Alert {
                    sequence: 0,
                    day,
                    domain: d,
                    name: ctx.folded.resolve(d),
                    score: 1.0,
                    verdict: Verdict::SeedConfirmed,
                    iteration: 0,
                    period_secs: None,
                    hosts: ctx.index.hosts_of(d).map(<[HostId]>::to_vec).unwrap_or_default(),
                });
            }
            seed_domains.extend(soc_present);
            seed_domains.sort_unstable();
            seed_domains.dedup();
            if !seed_domains.is_empty() {
                let _bp_span = self.metrics.bp.start();
                let seeds = Seeds::from_domains_with_hosts(&ctx, seed_domains);
                let outcome =
                    belief_propagation(&ctx, Some(&detector), &self.cfg.sim, &seeds, &self.cfg.bp);
                report.stages.bp_iterations = outcome.iterations.len();
                report.stages.bp_labeled = outcome.labeled.len();
                // Every seed is already alerted above; alert on the
                // expansion only.
                for d in outcome.detected() {
                    alerts.push(self.bp_alert(&ctx, day, d));
                }
                report.outcome = Some(outcome);
            }
        }

        report.stages.alerts_emitted = alerts.len();
        report.cc_candidates = candidates;
        report.alerts = alerts;
        report
    }

    /// Refreshes the `engine_interner_*` series from the four tables — at
    /// each day finish and once after a restore, the moments they change.
    pub(crate) fn record_interner_shape(&self) {
        self.metrics.raw_table.record(self.fold.raw_interner());
        self.metrics.folded_table.record(self.fold.folded_interner());
        self.metrics.ua_table.record(&self.uas);
        self.metrics.path_table.record(&self.paths);
    }

    /// The slim copy retained per day: counters only, so a months-long
    /// stream does not accumulate per-domain names, alerts, and BP traces.
    pub(crate) fn counters_only(report: &DayReport) -> DayReport {
        DayReport {
            day: report.day,
            bootstrap: report.bootstrap,
            duplicate: report.duplicate,
            stages: report.stages,
            dns_counts: report.dns_counts,
            proxy_counts: report.proxy_counts,
            norm_counts: report.norm_counts,
            cc_candidates: Vec::new(),
            alerts: Vec::new(),
            outcome: None,
        }
    }

    /// Runs belief propagation for any hint mode on a retained day,
    /// emitting alerts for the reported domains.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownDay`] when the day was never processed as an
    /// operation day; [`EngineError::WorkerPanicked`] when scoring or the
    /// expansion panics (no alert is numbered then).
    pub fn investigate(
        &self,
        day: Day,
        investigation: Investigation,
    ) -> Result<InvestigationReport, EngineError> {
        let product = self.products.get(&day).ok_or(EngineError::UnknownDay(day))?;
        catch_worker_panic(|| self.run_investigation(product, investigation))
    }

    /// The body of [`Engine::investigate`], on a retained day's product.
    fn run_investigation(
        &self,
        product: &DayProduct,
        investigation: Investigation,
    ) -> InvestigationReport {
        let day = product.index.day();
        let ctx = self.context_of(product);
        let detector = self.detector();

        // In no-hint mode the seeds are the day's own C&C detections;
        // remember their real scores/evidence so their alerts keep the
        // CommandAndControl shape instead of degrading to generic seeds.
        let mut detection_evidence: BTreeMap<DomainSym, (f64, Option<u64>)> = BTreeMap::new();
        let seeds = match &investigation.seeds {
            SeedSpec::Hosts(hosts) => Seeds::from_hosts(hosts.iter().copied()),
            SeedSpec::Domains(domains) => {
                Seeds::from_domains_with_hosts(&ctx, domains.iter().copied())
            }
            SeedSpec::Names(names) => {
                // Fold raw names the same way the reduction pipeline folds
                // traffic, so e.g. "x.cc.alpha.c3" resolves to the folded
                // "cc.alpha.c3" entity — without interning probes into the
                // shared namespace.
                let syms: Vec<DomainSym> = names
                    .iter()
                    .filter_map(|n| ctx.folded.get(fold_domain(n, self.cfg.pipeline.fold_level)))
                    .collect();
                Seeds::from_domains_with_hosts(&ctx, syms)
            }
            SeedSpec::TodaysDetections => {
                let detections: Vec<DomainSym> = self
                    .score_rare_domains(&ctx, &detector)
                    .into_iter()
                    .filter(|c| c.detected)
                    .map(|c| {
                        detection_evidence.insert(c.domain, (c.score, c.period_secs));
                        c.domain
                    })
                    .collect();
                Seeds::from_domains_with_hosts(&ctx, detections)
            }
        };

        let sim = match investigation.sim_threshold {
            Some(t) => {
                let mut sim = self.cfg.sim.clone();
                sim.set_threshold(t);
                sim
            }
            None => self.cfg.sim.clone(),
        };

        let outcome = belief_propagation(&ctx, Some(&detector), &sim, &seeds, &self.cfg.bp);
        let mut alerts: Vec<Alert> = outcome
            .labeled
            .iter()
            .filter(|d| investigation.count_seeds || d.reason != earlybird_core::LabelReason::Seed)
            .map(|d| {
                let mut alert = self.bp_alert(&ctx, day, d);
                if let Some(&(score, period_secs)) = detection_evidence.get(&d.domain) {
                    alert.verdict = Verdict::CommandAndControl;
                    alert.score = score;
                    alert.period_secs = period_secs;
                }
                alert
            })
            .collect();
        self.assign_and_emit(&mut alerts);

        InvestigationReport { day, outcome, count_seeds: investigation.count_seeds, alerts }
    }

    /// Scores every automated rare domain of a retained day with the
    /// engine's *current* model (parallelized like the ingest pass).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownDay`] when the day is not retained;
    /// [`EngineError::WorkerPanicked`] when scoring panics.
    pub fn cc_scores(&self, day: Day) -> Result<Vec<CcCandidate>, EngineError> {
        let product = self.products.get(&day).ok_or(EngineError::UnknownDay(day))?;
        catch_worker_panic(|| self.score_rare_domains(&self.context_of(product), &self.detector()))
    }

    /// All automated `(host, domain, evidence)` pairs among a retained
    /// day's rare domains under an arbitrary beacon detector — the Table II
    /// parameter-sweep primitive.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownDay`] when the day is not retained.
    pub fn automated_pairs_sweep(
        &self,
        day: Day,
        automation: &AutomationDetector,
    ) -> Result<Vec<(HostId, DomainSym, AutomationEvidence)>, EngineError> {
        let product = self.products.get(&day).ok_or(EngineError::UnknownDay(day))?;
        Ok(earlybird_core::automated_pairs_with(&product.index, automation))
    }

    // -- internals ---------------------------------------------------------

    pub(crate) fn fill_reduction_counters(&self, report: &mut DayReport) {
        if let Some(c) = report.dns_counts {
            report.stages.domains_all = c.domains_all;
            report.stages.domains_after_internal_filter = c.domains_after_internal_filter;
            report.stages.domains_after_server_filter = c.domains_after_server_filter;
        }
        if let Some(c) = report.proxy_counts {
            report.stages.domains_all = c.domains_all;
            report.stages.domains_after_internal_filter = c.domains_after_internal_filter;
            report.stages.domains_after_server_filter = c.domains_after_server_filter;
        }
    }

    fn bp_alert(&self, ctx: &DayContext<'_>, day: Day, d: &earlybird_core::ScoredDomain) -> Alert {
        Alert {
            sequence: 0,
            day,
            domain: d.domain,
            name: ctx.folded.resolve(d.domain),
            score: d.score,
            verdict: Verdict::from_reason(d.reason),
            iteration: d.iteration,
            period_secs: None,
            hosts: ctx.index.hosts_of(d.domain).map(<[HostId]>::to_vec).unwrap_or_default(),
        }
    }

    /// Assigns engine-wide sequence numbers and appends the alerts to the
    /// alert log, if one is attached. Numbers are allocated under the log's
    /// lock so concurrent `investigate` calls cannot append a
    /// later-numbered batch ahead of an earlier one.
    pub(crate) fn assign_and_emit(&self, alerts: &mut [Alert]) {
        let mut log = self.alert_log.as_ref().map(CollectedAlerts::lock);
        let start = self.sequence.fetch_add(alerts.len() as u64, Ordering::SeqCst);
        for (alert, sequence) in alerts.iter_mut().zip(start..) {
            alert.sequence = sequence;
        }
        if let Some(log) = &mut log {
            log.extend_from_slice(alerts);
        }
    }

    /// Evaluates every rare domain of the day — automation evidence plus
    /// model score — sharding the work across the configured thread pool.
    /// Results are deterministic: sorted by descending score, then domain.
    /// A worker's panic resumes on the calling thread with its payload;
    /// callers type it with [`catch_worker_panic`].
    fn score_rare_domains(&self, ctx: &DayContext<'_>, detector: &CcDetector) -> Vec<CcCandidate> {
        let domains: Vec<DomainSym> = ctx.index.rare_domains().collect();

        let evaluate = |domain: DomainSym| -> Option<CcCandidate> {
            let auto_hosts = detector.automated_hosts(ctx, domain);
            if auto_hosts.is_empty() {
                return None;
            }
            let score = detector.score_with(ctx, domain, &auto_hosts);
            Some(CcCandidate {
                domain,
                name: ctx.folded.resolve(domain),
                score,
                auto_hosts: auto_hosts.len(),
                period_secs: auto_hosts.first().map(|(_, ev)| ev.period),
                detected: detector.is_detection(score, &auto_hosts),
            })
        };

        // Shard only when each worker gets enough domains to amortize the
        // spawn cost; small days run sequentially.
        let workers = self.cfg.parallelism.min(domains.len() / self.cfg.parallel_threshold).max(1);
        let mut candidates: Vec<CcCandidate> = if workers <= 1 {
            domains.iter().copied().filter_map(evaluate).collect()
        } else {
            let chunk = domains.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = domains
                    .chunks(chunk)
                    .map(|shard| {
                        scope.spawn(move || {
                            shard.iter().copied().filter_map(&evaluate).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // The scope joins the other workers before the resumed
                // panic leaves it.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                    .collect()
            })
        };
        // total_cmp keeps the ordering total even if a hostile model emits
        // NaN scores — no panic path in the sort.
        candidates.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.domain.cmp(&b.domain)));
        candidates
    }
}

/// The detection boundary: runs `f` (scoring on either path, alert
/// building, belief propagation) and types any panic inside it as
/// [`EngineError::WorkerPanicked`]. `f` runs on `&Engine`, so a panic
/// leaves nothing half applied.
pub(crate) fn catch_worker_panic<R>(f: impl FnOnce() -> R) -> Result<R, EngineError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload.downcast_ref::<&str>().map(|s| s.to_string());
        let message = message.or_else(|| payload.downcast_ref::<String>().cloned());
        EngineError::WorkerPanicked(message.unwrap_or_else(|| "non-string panic payload".into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};

    fn engine_over_tiny(parallelism: usize) -> (Engine, Vec<DayReport>, CollectedAlerts) {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let log = CollectedAlerts::default();
        let mut engine = EngineBuilder::lanl()
            .parallelism(parallelism)
            .parallel_threshold(1) // force sharding even on tiny days
            .auto_investigate(true)
            .alert_log(log.clone())
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .unwrap();
        let reports: Vec<DayReport> = challenge
            .dataset
            .days
            .iter()
            .map(|day| engine.ingest_day(DayBatch::Dns(day)))
            .collect();
        (engine, reports, log)
    }

    #[test]
    fn parallel_and_sequential_scoring_agree() {
        let (par, reports_par, alerts_par) = engine_over_tiny(4);
        let (seq, reports_seq, alerts_seq) = engine_over_tiny(1);
        assert_eq!(par.days().collect::<Vec<_>>(), seq.days().collect::<Vec<_>>());
        assert!(reports_par.iter().any(|r| !r.cc_candidates.is_empty()), "candidates observed");
        for (a, b) in reports_par.iter().zip(&reports_seq) {
            assert_eq!(a.cc_candidates, b.cc_candidates, "{:?}", a.day);
            assert!(a.stages.deterministic_eq(&b.stages), "{:?}", a.day);
        }
        assert_eq!(alerts_par.snapshot(), alerts_seq.snapshot());
    }

    #[test]
    fn stored_reports_are_counters_only() {
        let (engine, reports, _) = engine_over_tiny(2);
        let heavy = reports.iter().find(|r| !r.alerts.is_empty()).expect("some day alerts");
        let stored = engine.report(heavy.day).expect("stored");
        assert!(stored.alerts.is_empty() && stored.cc_candidates.is_empty());
        assert_eq!(stored.stages, heavy.stages, "counters retained verbatim");
    }

    #[test]
    fn bootstrap_days_are_not_retained() {
        let (engine, _, _) = engine_over_tiny(2);
        let bootstrap = Day::new(0);
        assert!(engine.report(bootstrap).is_some(), "bootstrap report stored");
        assert!(engine.report(bootstrap).unwrap().bootstrap);
        assert!(engine.day_index(bootstrap).is_none(), "no product for bootstrap days");
        assert!(engine.investigate(bootstrap, Investigation::no_hint()).is_err());
    }

    #[test]
    fn alerts_are_sequenced_monotonically() {
        let (_, _, alerts) = engine_over_tiny(2);
        let snapshot = alerts.snapshot();
        assert!(!snapshot.is_empty(), "campaigns must raise alerts");
        assert!(snapshot.windows(2).all(|w| w[0].sequence < w[1].sequence));
    }

    /// The facade must reproduce exactly what the pre-redesign call
    /// sequence (CcDetector::detect_all → Seeds → belief_propagation)
    /// produced, for both hint modes, on every campaign day.
    #[test]
    fn investigate_matches_raw_call_sequence() {
        use earlybird_core::{belief_propagation, CcDetector, SimScorer};
        use earlybird_synthgen::lanl::ChallengeCase;

        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let mut engine = EngineBuilder::lanl()
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .unwrap();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
        }

        let cc = CcDetector::lanl_default();
        let sim = SimScorer::lanl_default();
        let bp_cfg = earlybird_core::BpConfig::lanl_default();
        for campaign in &challenge.campaigns {
            let ctx = engine.context(campaign.day).expect("campaign day retained");
            let (raw, investigation) = match campaign.case {
                ChallengeCase::Four => {
                    let detections = cc.detect_all(&ctx);
                    let seeds =
                        Seeds::from_domains_with_hosts(&ctx, detections.iter().map(|d| d.domain));
                    (
                        belief_propagation(&ctx, Some(&cc), &sim, &seeds, &bp_cfg),
                        Investigation::no_hint(),
                    )
                }
                _ => {
                    let seeds = Seeds::from_hosts(campaign.hint_hosts.iter().copied());
                    (
                        belief_propagation(&ctx, Some(&cc), &sim, &seeds, &bp_cfg),
                        Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
                    )
                }
            };
            let facade = engine.investigate(campaign.day, investigation).unwrap().outcome;
            assert_eq!(facade, raw, "campaign on 3/{} must agree", campaign.march_day);
        }
    }

    #[test]
    fn replayed_day_is_a_noop_with_duplicate_flag() {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let mut engine = EngineBuilder::lanl()
            .bootstrap_days(0)
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .unwrap();
        let first = engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[0]));
        let history_len = engine.history().len();
        let replay = engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[0]));
        assert!(!first.duplicate);
        assert!(replay.duplicate, "re-fed day must be flagged");
        assert_eq!(engine.history().len(), history_len, "profiles not double-counted");
        assert_eq!(replay.stages.rare_destinations, first.stages.rare_destinations);
    }

    #[test]
    fn retention_window_evicts_oldest_days() {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let mut engine = EngineBuilder::lanl()
            .retain_days(3)
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .unwrap();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
        }
        let retained: Vec<Day> = engine.days().collect();
        assert_eq!(retained.len(), 3, "only the newest window is investigable");
        let newest = *retained.last().unwrap();
        assert_eq!(newest.index(), challenge.dataset.meta.total_days - 1);
        let evicted = retained[0].index() - 1;
        assert!(engine.investigate(Day::new(evicted), Investigation::no_hint()).is_err());
        assert!(engine.report(Day::new(evicted)).is_some(), "counters survive eviction");
    }

    #[test]
    fn seed_names_are_folded_before_lookup() {
        // A deep subdomain of a folded entity must seed the same
        // investigation as the folded symbol itself. Build one day whose
        // C&C domain already has three labels (the LANL fold level), so
        // "deep.cc.alpha.c3" folds back onto it.
        use earlybird_logmodel::{DnsDayLog, DnsQuery, DnsRecordType, HostKind, Ipv4, Timestamp};

        let domains = Arc::new(DomainInterner::new());
        let mut queries = Vec::new();
        for host in [1u32, 2] {
            for beat in 0..20 {
                queries.push(DnsQuery {
                    ts: Timestamp::from_secs(30_000 + host as u64 * 7 + beat * 600),
                    src: HostId::new(host),
                    src_ip: Ipv4::new(10, 0, 0, host as u8),
                    qname: domains.intern("cc.alpha.c3"),
                    qtype: DnsRecordType::A,
                    answer: Some(Ipv4::new(198, 51, 100, 99)),
                });
            }
        }
        queries.sort_by_key(|q| q.ts);
        let meta = DatasetMeta {
            n_hosts: 4,
            host_kinds: vec![HostKind::Workstation; 4],
            internal_suffixes: vec![],
            bootstrap_days: 0,
            total_days: 1,
        };
        let mut engine = EngineBuilder::lanl().build(Arc::clone(&domains), meta).unwrap();
        engine.ingest_day(DayBatch::Dns(&DnsDayLog { day: Day::new(0), queries }));

        let by_name = engine
            .investigate(
                Day::new(0),
                Investigation::from_seed_names(["deep.cc.alpha.c3"]).count_seeds(true),
            )
            .unwrap();
        let by_sym = engine
            .investigate(
                Day::new(0),
                Investigation::from_seed_domains([engine.intern_domain("cc.alpha.c3")])
                    .count_seeds(true),
            )
            .unwrap();
        assert_eq!(by_name.outcome, by_sym.outcome, "unfolded seed names must fold");
        assert!(!by_name.outcome.labeled.is_empty());
    }

    #[test]
    fn live_soc_seed_raises_seed_confirmed_alert() {
        use earlybird_logmodel::{DnsDayLog, DnsQuery, DnsRecordType, HostKind, Ipv4, Timestamp};

        let domains = Arc::new(DomainInterner::new());
        let queries: Vec<DnsQuery> = [10_000u64, 55_000]
            .iter()
            .map(|&ts| DnsQuery {
                ts: Timestamp::from_secs(ts),
                src: HostId::new(1),
                src_ip: Ipv4::new(10, 0, 0, 1),
                qname: domains.intern("ioc.evil.c3"),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(203, 0, 113, 9)),
            })
            .collect();
        let meta = DatasetMeta {
            n_hosts: 4,
            host_kinds: vec![HostKind::Workstation; 4],
            internal_suffixes: vec![],
            bootstrap_days: 0,
            total_days: 1,
        };
        let alerts = CollectedAlerts::default();
        let mut engine = EngineBuilder::lanl()
            .soc_seed("ioc.evil.c3")
            .auto_investigate(true)
            .alert_log(alerts.clone())
            .build(Arc::clone(&domains), meta)
            .unwrap();
        let report = engine.ingest_day(DayBatch::Dns(&DnsDayLog { day: Day::new(0), queries }));

        // Not automated, so no C&C detection -- but the live IOC hit itself
        // must reach the alert stream.
        assert_eq!(report.stages.cc_detections, 0);
        let stream = alerts.snapshot();
        assert!(
            stream
                .iter()
                .any(|a| a.name == "ioc.evil.c3" && a.verdict == crate::Verdict::SeedConfirmed),
            "live IOC hit must alert: {stream:?}"
        );
    }

    #[test]
    fn campaign_domains_are_rare_on_their_day() {
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let (engine, _, _) = engine_over_tiny(1);
        for campaign in &challenge.campaigns {
            let index = engine.day_index(campaign.day).expect("campaign day retained");
            for name in campaign.answer_domains() {
                let sym = engine.folded().get(name).expect("campaign domain indexed");
                assert!(index.is_rare(sym), "{name} must be rare on its campaign day");
            }
        }
    }

    #[test]
    fn seed_interning_folds() {
        let (engine, _, _) = engine_over_tiny(1);
        let a = engine.intern_domain("deep.sub.rainbow.c3");
        let b = engine.intern_domain("sub.rainbow.c3");
        assert_eq!(a, b, "seeds fold to the engine's level");
    }

    #[test]
    fn a_name_interned_after_admission_is_judged_on_the_next_push() {
        use earlybird_logmodel::{DnsQuery, DnsRecordType, HostKind, Ipv4, Timestamp};

        let raw = Arc::new(DomainInterner::new());
        let meta = DatasetMeta {
            n_hosts: 2,
            host_kinds: vec![HostKind::Workstation; 2],
            internal_suffixes: vec![".corp.local".into()],
            bootstrap_days: 1,
            total_days: 2,
        };
        let query = |name: &str| DnsQuery {
            ts: Timestamp::from_secs(5),
            src: HostId::new(0),
            src_ip: Ipv4::new(10, 0, 0, 1),
            qname: raw.intern(name),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(93, 1, 2, 3)),
        };
        let mut engine = EngineBuilder::enterprise().build(Arc::clone(&raw), meta).unwrap();
        let mut ingest = engine.begin_day(Day::new(0), IngestSource::Dns);
        ingest.push_dns_records(&[query("www.nbc.com"), query("mail.corp.local")]);
        // Interned into the caller-shared interner between pushes.
        ingest.push_dns_records(&[query("wiki.corp.local"), query("cdn.evil.ru")]);
        let report = ingest.finish();
        assert!(report.bootstrap);
        let counts = report.dns_counts.expect("a DNS day");
        assert_eq!(counts.domains_all, 3, "nbc.com, corp.local, evil.ru");
        assert_eq!(counts.domains_after_internal_filter, 2, "both corp.local names dropped");
        let history: Vec<String> =
            engine.history().ordered().iter().map(|&d| engine.resolve(d)).collect();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|name| name != "corp.local"), "{history:?}");
    }

    /// A failed finish discards its day; once the fault clears (the paper
    /// heuristic replaces a model the extractor cannot feed) the re-pushed
    /// day and every later one match a run that had the heuristic from the
    /// start: reports, alert sequences and full freeze bytes.
    #[test]
    fn a_repush_after_a_failed_finish_matches_the_uninterrupted_run() {
        use earlybird_core::CcModel;
        use earlybird_features::{FeatureScaler, LinearRegression, RegressionModel};

        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0, (i % 2) as f64]).collect();
        let fit = LinearRegression::fit_ridge(&xs, &[0.0; 8], 1e-3).unwrap();
        let model = RegressionModel::new(&["a", "b", "c"], fit, 0.5);
        let broken = CcModel::Regression { model, scaler: FeatureScaler::identity(3) };
        let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
        let days = &challenge.dataset.days;
        let first_operation = challenge.dataset.meta.bootstrap_days as usize;
        let freeze_bytes = |engine: &Engine| {
            let mut bytes = Vec::new();
            engine.freeze().write_to(&mut bytes).unwrap();
            bytes
        };
        for parallelism in [1, 2] {
            let build = |model: Option<CcModel>, log: &CollectedAlerts| {
                let builder = EngineBuilder::lanl()
                    .parallelism(parallelism)
                    .parallel_threshold(1)
                    .auto_investigate(true)
                    .alert_log(log.clone());
                let builder = match model {
                    Some(model) => builder.cc_model(model),
                    None => builder,
                };
                builder
                    .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
                    .unwrap()
            };
            let (reference_log, log) = (CollectedAlerts::default(), CollectedAlerts::default());
            let mut reference = build(None, &reference_log);
            let mut engine = build(Some(broken.clone()), &log);
            for day in &days[..first_operation] {
                reference.ingest_day(DayBatch::Dns(day));
                engine.ingest_day(DayBatch::Dns(day));
            }

            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let failed = engine.try_ingest_day(DayBatch::Dns(&days[first_operation]));
            std::panic::set_hook(hook);
            assert!(matches!(failed, Err(EngineError::WorkerPanicked(_))), "{failed:?}");
            engine.set_models(reference.cfg.cc_model.clone(), reference.cfg.sim.clone());

            for day in &days[first_operation..] {
                let (got, want) = (
                    engine.ingest_day(DayBatch::Dns(day)),
                    reference.ingest_day(DayBatch::Dns(day)),
                );
                assert!(got.stages.deterministic_eq(&want.stages), "{:?} counters", day.day);
                assert_eq!(got.cc_candidates, want.cc_candidates, "{:?}", day.day);
                assert_eq!(got.alerts, want.alerts, "{:?} alerts and sequences", day.day);
                assert_eq!(got.outcome, want.outcome, "{:?} expansion", day.day);
            }
            assert!(!reference_log.snapshot().is_empty(), "campaigns must raise alerts");
            assert_eq!(log.snapshot(), reference_log.snapshot(), "parallelism({parallelism})");
            assert!(
                freeze_bytes(&engine) == freeze_bytes(&reference),
                "parallelism({parallelism})"
            );
        }
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let raw = Arc::new(DomainInterner::new());
        let bad = EngineBuilder::lanl().retain_days(0).build(raw, DatasetMeta::default());
        assert!(matches!(bad, Err(EngineError::InvalidConfig(_))));
    }
}
