//! Engine configuration and validated construction.

use crate::alert::CollectedAlerts;
use crate::core_loop::Engine;
use crate::metrics::EngineMetrics;
use earlybird_core::{BpConfig, CcModel, SimScorer};
use earlybird_intel::WhoisRegistry;
use earlybird_logmodel::{DatasetMeta, DomainInterner, PathInterner, UaInterner};
use earlybird_obs::MetricsRegistry;
use earlybird_timing::AutomationDetector;
use std::fmt;
use std::sync::Arc;

/// A typed engine failure: configuration mistakes caught by
/// [`EngineBuilder::build`], unknown-day lookups, and crashed scoring
/// workers, which previously aborted the whole daily cycle.
#[derive(Debug)]
pub enum EngineError {
    /// A knob failed validation; the message names it.
    InvalidConfig(String),
    /// The requested day is not retained by the engine (bootstrap day, or
    /// never ingested).
    UnknownDay(earlybird_logmodel::Day),
    /// Detection panicked — C&C scoring on either path, alert building or
    /// belief propagation. A failed day finish applied nothing and
    /// discarded the day (see [`crate::DayIngest::try_finish`]).
    WorkerPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
            EngineError::UnknownDay(day) => write!(f, "day {day:?} is not retained"),
            EngineError::WorkerPanicked(msg) => write!(f, "detection panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Reduction and profiling configuration: how names fold and when a
/// destination or user agent counts as rare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// The complete, validated engine configuration. Built via
/// [`EngineBuilder`]; read back through [`Engine::config`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Reduction / profiling configuration (fold level, rarity thresholds).
    pub pipeline: PipelineConfig,
    /// The beacon detector used by the C&C stage.
    pub automation: AutomationDetector,
    /// The C&C scoring model (replaced in place by
    /// [`Engine::train_enterprise`]).
    pub cc_model: CcModel,
    /// The similarity scorer for belief propagation.
    pub sim: SimScorer,
    /// Belief-propagation limits.
    pub bp: BpConfig,
    /// WHOIS registry for registration features (absent for anonymized
    /// sources).
    pub whois: Option<WhoisRegistry>,
    /// Default `(DomAge, DomValidity)` when WHOIS data is missing.
    pub whois_defaults: (f64, f64),
    /// SOC-provided seed domain names (IOC feed), folded at build time and
    /// used by auto-investigation.
    pub soc_seed_domains: Vec<String>,
    /// Run belief propagation from the day's C&C detections (plus any SOC
    /// seeds present today) during [`Engine::ingest_day`].
    pub auto_investigate: bool,
    /// Worker threads for per-domain C&C scoring (1 = sequential).
    pub parallelism: usize,
    /// Minimum rare domains per worker before the scoring pass shards
    /// across threads; below `parallelism * parallel_threshold` domains the
    /// pass runs sequentially (thread spawn would dominate).
    pub parallel_threshold: usize,
    /// Minimum records per parse/reduce worker when a pushed ingest span is
    /// split across the pool (`Engine::begin_day` and the `ingest_day`
    /// wrapper); spans shorter than this run inline.
    pub ingest_chunk_records: usize,
    /// Override for the bootstrap/operation split; `None` uses
    /// [`DatasetMeta::bootstrap_days`].
    pub bootstrap_days: Option<u32>,
    /// Keep only the newest N operation days investigable (their contact
    /// indexes are the engine's dominant memory cost); older days are
    /// evicted and [`Engine::investigate`] returns `UnknownDay` for them.
    /// `None` (the default) retains every operation day, which the
    /// paper-evaluation harnesses need.
    pub retain_days: Option<usize>,
}

/// Builder for [`Engine`]: one place for every knob the DSN'15 loop needs.
pub struct EngineBuilder {
    cfg: EngineConfig,
    alert_log: Option<CollectedAlerts>,
    uas: Option<Arc<UaInterner>>,
    paths: Option<Arc<PathInterner>>,
    metrics: Option<Arc<MetricsRegistry>>,
    metric_labels: Vec<(String, String)>,
}

impl EngineBuilder {
    /// LANL-mode defaults (§V): fold anonymized names to the third level,
    /// the paper's beacon detector, the two-host C&C heuristic, the
    /// additive similarity scorer, five BP iterations.
    pub fn lanl() -> Self {
        EngineBuilder {
            cfg: EngineConfig {
                pipeline: PipelineConfig::lanl(),
                automation: AutomationDetector::paper_default(),
                cc_model: CcModel::LanlHeuristic { min_hosts: 2, period_tolerance_secs: 10 },
                sim: SimScorer::lanl_default(),
                bp: BpConfig::lanl_default(),
                whois: None,
                whois_defaults: (0.0, 0.0),
                soc_seed_domains: Vec::new(),
                auto_investigate: false,
                parallelism: default_parallelism(),
                parallel_threshold: 512,
                ingest_chunk_records: 8_192,
                bootstrap_days: None,
                retain_days: None,
            },
            alert_log: None,
            uas: None,
            paths: None,
            metrics: None,
            metric_labels: Vec::new(),
        }
    }

    /// Enterprise-mode defaults (§VI): fold to the second level, larger BP
    /// cap. The C&C model starts as the conservative two-host heuristic and
    /// is upgraded to the trained regression by
    /// [`Engine::train_enterprise`].
    pub fn enterprise() -> Self {
        let mut b = Self::lanl();
        b.cfg.pipeline = PipelineConfig::enterprise();
        b.cfg.bp = BpConfig::enterprise_default();
        b
    }

    /// Replaces the C&C scoring model.
    pub fn cc_model(mut self, model: CcModel) -> Self {
        self.cfg.cc_model = model;
        self
    }

    /// Replaces the belief-propagation limits.
    pub fn bp(mut self, bp: BpConfig) -> Self {
        self.cfg.bp = bp;
        self
    }

    /// Installs a WHOIS registry for registration features.
    pub fn whois(mut self, whois: WhoisRegistry) -> Self {
        self.cfg.whois = Some(whois);
        self
    }

    /// Sets the `(DomAge, DomValidity)` defaults used when WHOIS data is
    /// missing or unparseable.
    pub fn whois_defaults(mut self, defaults: (f64, f64)) -> Self {
        self.cfg.whois_defaults = defaults;
        self
    }

    /// Adds one SOC seed (IOC) domain name.
    pub fn soc_seed(mut self, name: impl Into<String>) -> Self {
        self.cfg.soc_seed_domains.push(name.into());
        self
    }

    /// Adds many SOC seed domain names.
    pub fn soc_seeds<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.cfg.soc_seed_domains.extend(names.into_iter().map(Into::into));
        self
    }

    /// Enables or disables auto-investigation during ingest.
    pub fn auto_investigate(mut self, enabled: bool) -> Self {
        self.cfg.auto_investigate = enabled;
        self
    }

    /// Sets the C&C-scoring worker-thread count (clamped to at least 1).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.cfg.parallelism = workers;
        self
    }

    /// Sets the minimum rare domains per worker below which the scoring
    /// pass stays sequential (clamped to at least 1).
    pub fn parallel_threshold(mut self, min_domains_per_worker: usize) -> Self {
        self.cfg.parallel_threshold = min_domains_per_worker;
        self
    }

    /// Sets the minimum records per parse/reduce worker for streaming
    /// ingest spans (clamped to at least 1).
    pub fn ingest_chunk_records(mut self, min_records_per_worker: usize) -> Self {
        self.cfg.ingest_chunk_records = min_records_per_worker;
        self
    }

    /// Installs the user-agent / URL-path interners used when parsing raw
    /// proxy log lines, so symbols stay consistent with records produced
    /// elsewhere (e.g. a `ProxyDataset`'s own interners). Fresh interners
    /// are created when omitted.
    pub fn proxy_interners(mut self, uas: Arc<UaInterner>, paths: Arc<PathInterner>) -> Self {
        self.uas = Some(uas);
        self.paths = Some(paths);
        self
    }

    /// Overrides the bootstrap/operation split from the dataset metadata.
    pub fn bootstrap_days(mut self, days: u32) -> Self {
        self.cfg.bootstrap_days = Some(days);
        self
    }

    /// Bounds engine memory on long streams: keep only the newest `days`
    /// operation days investigable, evicting older contact indexes.
    pub fn retain_days(mut self, days: usize) -> Self {
        self.cfg.retain_days = Some(days);
        self
    }

    /// Appends every alert the engine emits to `log`, in sequence order.
    /// Without one, alerts reach callers only through the reports.
    pub fn alert_log(mut self, log: CollectedAlerts) -> Self {
        self.alert_log = Some(log);
        self
    }

    /// Attaches a shared [`MetricsRegistry`]: per-stage timings, ingest
    /// counters, and checkpoint bandwidth flow into it as `engine_*`
    /// series. Omitted, the engine records into a private enabled registry
    /// reachable via [`Engine::metrics`]. Like the alert log, the registry is an
    /// attachment, not configuration — it is never persisted and never
    /// affects results.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Adds one label to every metric series this engine registers (e.g.
    /// `("tenant", "acme")` in a multi-tenant service). May be called
    /// repeatedly.
    pub fn metric_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metric_labels.push((key.into(), value.into()));
        self
    }

    /// Validates the configuration and builds the engine over a dataset's
    /// raw-name interner and metadata.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for out-of-range knobs.
    pub fn build(
        mut self,
        raw: Arc<DomainInterner>,
        meta: DatasetMeta,
    ) -> Result<Engine, EngineError> {
        validate_config(&self.cfg)?;
        let cfg = &mut self.cfg;
        cfg.parallelism = cfg.parallelism.max(1);
        cfg.parallel_threshold = cfg.parallel_threshold.max(1);
        cfg.ingest_chunk_records = cfg.ingest_chunk_records.max(1);
        let metrics = Self::make_metrics(self.metrics, &self.metric_labels);
        let mut engine =
            Engine::new(self.cfg, self.alert_log, raw, meta, self.uas, self.paths, metrics);
        engine.reintern_soc_seeds();
        Ok(engine)
    }

    /// Registers the engine's metric handles against the attached registry
    /// (or a private enabled one when none was attached).
    pub(crate) fn make_metrics(
        registry: Option<Arc<MetricsRegistry>>,
        labels: &[(String, String)],
    ) -> EngineMetrics {
        EngineMetrics::new(registry.unwrap_or_else(|| Arc::new(MetricsRegistry::new())), labels)
    }

    /// Decomposes the builder into its configuration and attachments — used
    /// by the snapshot-restore path in [`crate::Engine`]'s `persist`
    /// module.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        EngineConfig,
        Option<CollectedAlerts>,
        Option<Arc<UaInterner>>,
        Option<Arc<PathInterner>>,
        EngineMetrics,
    ) {
        let metrics = Self::make_metrics(self.metrics, &self.metric_labels);
        (self.cfg, self.alert_log, self.uas, self.paths, metrics)
    }
}

/// Shared validation for built and restored configurations: every invariant
/// the engine's constructors would otherwise `assert!`.
pub(crate) fn validate_config(cfg: &EngineConfig) -> Result<(), EngineError> {
    if cfg.pipeline.fold_level == 0 || cfg.pipeline.fold_level > 8 {
        return Err(EngineError::InvalidConfig(format!(
            "fold_level must be in 1..=8, got {}",
            cfg.pipeline.fold_level
        )));
    }
    if cfg.pipeline.unpopular_threshold == 0 {
        return Err(EngineError::InvalidConfig("unpopular_threshold must be at least 1".into()));
    }
    if cfg.pipeline.rare_ua_threshold == 0 {
        return Err(EngineError::InvalidConfig("rare_ua_threshold must be at least 1".into()));
    }
    if cfg.bp.max_iterations == 0 {
        return Err(EngineError::InvalidConfig("bp.max_iterations must be at least 1".into()));
    }
    if !cfg.sim.threshold().is_finite() {
        return Err(EngineError::InvalidConfig("similarity threshold must be finite".into()));
    }
    if !(cfg.whois_defaults.0.is_finite() && cfg.whois_defaults.1.is_finite()) {
        return Err(EngineError::InvalidConfig("whois defaults must be finite".into()));
    }
    if let CcModel::LanlHeuristic { min_hosts, .. } = cfg.cc_model {
        if min_hosts == 0 {
            return Err(EngineError::InvalidConfig(
                "LanlHeuristic min_hosts must be at least 1".into(),
            ));
        }
    }
    if cfg.retain_days == Some(0) {
        return Err(EngineError::InvalidConfig(
            "retain_days must be at least 1 (omit it to retain every day)".into(),
        ));
    }
    Ok(())
}

/// Default worker count: the machine's parallelism, capped to keep shard
/// overhead sensible on small days.
fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}
