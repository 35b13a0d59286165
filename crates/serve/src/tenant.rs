//! One tenant: an isolated engine + store pair under the service's
//! concurrency and durability discipline.
//!
//! ## Locking model
//!
//! * `core` ([`std::sync::RwLock`]) guards the engine and the open-day
//!   map. Span pushes and day finishes take the write lock (ingest needs
//!   `&mut Engine`); every query — reports, investigations — takes the
//!   read lock only.
//! * The [`Persistence`] facade owns the tenant's store and runs commits
//!   on its background worker. A finish takes the *read* lock only long
//!   enough to freeze the day's delta (a short critical section), then
//!   releases every tenant lock and awaits the commit handle — both
//!   queries *and further ingest* proceed while the day's bytes hit
//!   storage, which is the slow part of sealing a day.
//! * Alert reads go through the shared [`CollectedAlerts`] handle and
//!   never touch the engine locks at all.
//!
//! ## Durability contract
//!
//! A `200` from `finish` means the frozen day's commit was awaited to
//! durability ([`CommitHandle::wait`]) *before* the response was written:
//! a `kill -9` after the ack cannot lose the day. Spans that were pushed
//! but never finished are not durable and vanish on crash — the span ack
//! says "absorbed", not "persisted".
//!
//! [`CommitHandle::wait`]: earlybird_engine::CommitHandle::wait

use crate::error::ServeError;
use crate::wire::{AlertsPage, FinishAck, InvestigateRequest, SpanAck, TenantSpec, TenantSummary};
use earlybird_engine::{
    CollectedAlerts, DayState, Engine, EngineBuilder, IngestSource, InvestigationReport,
    LifecycleConfig, Persistence, SnapshotPolicy, StoreDir,
};
use earlybird_logmodel::Day;
use earlybird_obs::{Counter, Gauge, MetricsRegistry, StageTimer};
use earlybird_store::ObjectStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Per-tenant admission-control ceilings; exceeding either rejects the
/// span with `429` + `Retry-After`.
#[derive(Clone, Copy, Debug)]
pub struct TenantLimits {
    /// Spans concurrently being absorbed (in-flight requests).
    pub max_inflight_spans: usize,
    /// Total bytes buffered across the tenant's open (unfinished) days.
    pub max_open_bytes: usize,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits { max_inflight_spans: 64, max_open_bytes: 512 << 20 }
    }
}

/// Cached per-tenant metric handles, all labeled `{tenant=...}`. Every
/// handle is an `Arc`-backed clone of a registry cell, so reads (the
/// summary row) and increments never take a tenant lock.
#[derive(Debug)]
struct TenantMetrics {
    ingest_records: Counter,
    ingest_bytes: Counter,
    span_parse_errors: Counter,
    admission_rejections: Counter,
    finish_commit: StageTimer,
    inflight_spans: Gauge,
    open_bytes: Gauge,
    /// The *store's* GC-failure counter — the same cell the tenant's
    /// [`StoreDir`] increments (metric identity is name + sorted labels).
    /// Holding a clone lets [`Tenant::summary`] report it without
    /// touching the store mutex, which a finish may hold for a while.
    store_gc_failures: Counter,
}

impl TenantMetrics {
    fn new(registry: &MetricsRegistry, name: &str, backend: &'static str) -> Self {
        let tenant: &[(&str, &str)] = &[("tenant", name)];
        TenantMetrics {
            ingest_records: registry.counter(
                "serve_ingest_records_total",
                "Records absorbed from span pushes",
                tenant,
            ),
            ingest_bytes: registry.counter(
                "serve_ingest_bytes_total",
                "Span payload bytes charged against open days",
                tenant,
            ),
            span_parse_errors: registry.counter(
                "serve_span_parse_errors_total",
                "Log lines rejected by the span parser",
                tenant,
            ),
            admission_rejections: registry.counter(
                "serve_admission_rejections_total",
                "Spans refused by admission control (HTTP 429)",
                tenant,
            ),
            finish_commit: registry.timer(
                "serve_finish_commit_micros",
                "Finish-to-durable latency: detection tail plus store commit",
                tenant,
            ),
            inflight_spans: registry.gauge(
                "serve_inflight_spans",
                "Span pushes currently being absorbed",
                tenant,
            ),
            open_bytes: registry.gauge(
                "serve_open_bytes",
                "Bytes buffered across open (unfinished) days",
                tenant,
            ),
            store_gc_failures: registry.counter(
                "store_gc_failures_total",
                "Best-effort GC deletions that failed (objects leak until quarantined)",
                &[("backend", backend), ("tenant", name)],
            ),
        }
    }
}

/// An open day plus the admission bookkeeping charged against it.
#[derive(Debug)]
struct OpenDay {
    state: DayState,
    bytes: usize,
}

/// Engine + open days: everything a request mutates under one lock.
#[derive(Debug)]
struct TenantCore {
    engine: Engine,
    open_days: BTreeMap<Day, OpenDay>,
}

/// One registered tenant.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    core: RwLock<TenantCore>,
    persistence: Persistence,
    alerts: CollectedAlerts,
    limits: TenantLimits,
    inflight_spans: AtomicUsize,
    open_bytes: AtomicUsize,
    /// Reports already covered by a store commit — the shutdown
    /// checkpoint is skipped when nothing new was ingested.
    persisted_reports: AtomicUsize,
    metrics: TenantMetrics,
}

/// Releases an in-flight-span reservation (and its gauge) on every exit
/// path.
struct InflightGuard<'t>(&'t Tenant);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight_spans.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.inflight_spans.dec();
    }
}

impl Tenant {
    /// Creates a tenant: builds a fresh engine from `spec`, creates its
    /// store in `scope`, and makes the registration durable by writing
    /// the initial full snapshot before returning.
    ///
    /// # Errors
    ///
    /// `400` for an invalid spec, `500` for store failures.
    pub fn create(
        name: &str,
        spec: &TenantSpec,
        scope: Box<dyn ObjectStore>,
        lifecycle: LifecycleConfig,
        limits: TenantLimits,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Tenant, ServeError> {
        let meta = spec.dataset_meta()?;
        let alerts = CollectedAlerts::default();
        let engine = spec
            .builder()
            .alert_log(alerts.clone())
            .metrics(Arc::clone(registry))
            .metric_label("tenant", name)
            .build(Arc::new(earlybird_logmodel::DomainInterner::new()), meta)
            .map_err(|e| ServeError::from_engine(&e))?;
        // `open_or_create`: the scope may hold the residue of a crashed,
        // never-acked creation (a manifest over an empty chain), which a
        // new PUT is entitled to claim. A *restorable* store here is
        // impossible — bind restores every non-empty scope into the
        // registry, and the registry rejected this name already.
        let mut dir = StoreDir::open_or_create_boxed(scope, lifecycle)
            .map_err(|e| ServeError::from_store(&e))?;
        dir.attach_metrics(registry, &[("tenant", name)]);
        let persistence = Persistence::new(dir, Self::policy());
        // Registration durability: an empty chain cannot be restored, so
        // a tenant that existed before a crash must already own a full
        // snapshot — awaited here, before the creation is acked.
        persistence
            .commit(&engine)
            .and_then(|handle| handle.wait())
            .map_err(|e| ServeError::from_store(&e))?;
        Ok(Tenant::assemble(name, engine, persistence, alerts, limits, registry))
    }

    /// Restores a tenant from its store scope after a cold start. All
    /// semantic configuration comes from the snapshot.
    ///
    /// Returns `None` when the scope holds a manifest but an *empty*
    /// chain — a crash hit between [`StoreDir::create_boxed`]'s initial
    /// manifest and the registration snapshot, so the tenant's creation
    /// was never acked and the scope is residue, not state. Skipping it
    /// (instead of failing the whole cold start) keeps the daemon's
    /// restart contract exactly at the ack boundary.
    ///
    /// # Errors
    ///
    /// `500` for a missing or corrupt chain.
    pub fn restore(
        name: &str,
        scope: Box<dyn ObjectStore>,
        lifecycle: LifecycleConfig,
        limits: TenantLimits,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Option<Tenant>, ServeError> {
        let mut dir =
            StoreDir::open_boxed(scope, lifecycle).map_err(|e| ServeError::from_store(&e))?;
        if dir.is_empty() {
            return Ok(None);
        }
        // Attach before the restore reads so the cold start's chain gets
        // fetched under the store's `get` span.
        dir.attach_metrics(registry, &[("tenant", name)]);
        let alerts = CollectedAlerts::default();
        let persistence = Persistence::new(dir, Self::policy());
        let builder = EngineBuilder::lanl()
            .alert_log(alerts.clone())
            .metrics(Arc::clone(registry))
            .metric_label("tenant", name);
        let engine = persistence.restore(builder).map_err(|e| ServeError::from_store(&e))?;
        Ok(Some(Tenant::assemble(name, engine, persistence, alerts, limits, registry)))
    }

    /// Every tenant runs the always-on policy: auto full/segment, commits
    /// on the facade's background worker (the finish path still awaits
    /// durability before acking), whole-chain compaction when the store's
    /// trigger fires.
    fn policy() -> SnapshotPolicy {
        SnapshotPolicy::default().background()
    }

    fn assemble(
        name: &str,
        engine: Engine,
        persistence: Persistence,
        alerts: CollectedAlerts,
        limits: TenantLimits,
        registry: &MetricsRegistry,
    ) -> Tenant {
        let persisted = engine.reports().count();
        let metrics = TenantMetrics::new(registry, name, persistence.store().backend().kind());
        Tenant {
            name: name.to_string(),
            core: RwLock::new(TenantCore { engine, open_days: BTreeMap::new() }),
            persistence,
            alerts,
            limits,
            inflight_spans: AtomicUsize::new(0),
            open_bytes: AtomicUsize::new(0),
            persisted_reports: AtomicUsize::new(persisted),
            metrics,
        }
    }

    /// The tenant's name (== its store scope).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn read_core(&self) -> std::sync::RwLockReadGuard<'_, TenantCore> {
        self.core.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_core(&self) -> std::sync::RwLockWriteGuard<'_, TenantCore> {
        self.core.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rejects a day that would regress behind the newest ingested day
    /// (the segment chain is append-only in day order). Duplicates of
    /// already-ingested days pass — they replay as no-ops.
    fn check_not_stale(core: &TenantCore, day: Day) -> Result<(), ServeError> {
        if core.engine.report(day).is_some() {
            return Ok(());
        }
        if let Some(&newest) = core.engine.reports().map(|r| &r.day).max() {
            if day < newest {
                return Err(ServeError::stale_day(day.index(), newest.index()));
            }
        }
        Ok(())
    }

    /// Absorbs one span of raw DNS log lines into `day`.
    ///
    /// # Errors
    ///
    /// `429` from admission control, `409` for a stale day.
    pub fn push_span(&self, day: Day, text: &str) -> Result<SpanAck, ServeError> {
        // Admission first, before any lock: a tenant at capacity must not
        // queue work behind its own backlog.
        let inflight = self.inflight_spans.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.inflight_spans.inc();
        let guard = InflightGuard(self);
        if inflight > self.limits.max_inflight_spans {
            self.metrics.admission_rejections.inc();
            return Err(ServeError::over_capacity(format!(
                "{inflight} spans in flight exceeds the tenant ceiling of {}",
                self.limits.max_inflight_spans
            )));
        }
        if self.open_bytes.load(Ordering::SeqCst) + text.len() > self.limits.max_open_bytes {
            self.metrics.admission_rejections.inc();
            return Err(ServeError::over_capacity(format!(
                "open days hold {} buffered bytes; a {}-byte span would exceed the ceiling of {}",
                self.open_bytes.load(Ordering::SeqCst),
                text.len(),
                self.limits.max_open_bytes
            )));
        }

        let mut core = self.write_core();
        Self::check_not_stale(&core, day)?;
        let core = &mut *core;
        let (resumed, prior_bytes) = match core.open_days.remove(&day) {
            Some(open) => (core.engine.resume_day(open.state, IngestSource::Dns), open.bytes),
            None => (core.engine.begin_day(day, IngestSource::Dns), 0),
        };
        let mut ingest = resumed;
        let before = ingest.records_pushed();
        let span_errors = ingest.push_lines(text).len();
        let ack = SpanAck {
            day: day.index(),
            records_pushed: ingest.records_pushed() as u64,
            span_parse_errors: span_errors as u64,
            duplicate: ingest.is_duplicate(),
        };
        self.metrics.ingest_records.add((ingest.records_pushed() - before) as u64);
        self.metrics.span_parse_errors.add(span_errors as u64);
        let state = ingest.suspend();
        let charged = if ack.duplicate { 0 } else { text.len() };
        core.open_days.insert(day, OpenDay { state, bytes: prior_bytes + charged });
        self.open_bytes.fetch_add(charged, Ordering::SeqCst);
        self.metrics.ingest_bytes.add(charged as u64);
        self.metrics.open_bytes.add(charged as i64);
        drop(guard);
        Ok(ack)
    }

    /// Seals `day`: runs the detection tail, commits the day to the
    /// tenant's store, and only then returns the report. Finishing an
    /// already-ingested day replays its stored counters (`duplicate`)
    /// without writing to the store, once every commit already queued has
    /// resolved; if one failed, the replay is refused like the original
    /// finish was.
    ///
    /// # Errors
    ///
    /// `404` when the day has no open ingest and was never ingested,
    /// `409` for stale days, `500` when the engine or the commit fails
    /// (the response is written only after a successful commit, so a
    /// `500` here means the day is NOT durable). A detection failure
    /// leaves the tenant unchanged and drops the open day: a retry
    /// answers `404` until the day's spans are pushed again.
    pub fn finish_day(&self, day: Day) -> Result<FinishAck, ServeError> {
        // One span for the whole seal: detection tail + store commit —
        // the latency a client sees between POSTing finish and holding a
        // durable ack. Recorded on every exit path (drop), errors
        // included, because a slow failure is still a slow finish.
        let _finish_span = self.metrics.finish_commit.start();
        let report = {
            let mut core = self.write_core();
            Self::check_not_stale(&core, day)?;
            let core = &mut *core;
            // The finish consumes the open day whatever its outcome, so
            // its bytes leave the budget here.
            let ingest = match core.open_days.remove(&day) {
                Some(open) => {
                    self.open_bytes.fetch_sub(open.bytes, Ordering::SeqCst);
                    self.metrics.open_bytes.add(-(open.bytes as i64));
                    core.engine.resume_day(open.state, IngestSource::Dns)
                }
                None if core.engine.report(day).is_some() => {
                    core.engine.begin_day(day, IngestSource::Dns)
                }
                None => return Err(ServeError::unknown_day(day.index())),
            };
            ingest.try_finish().map_err(|e| ServeError::from_engine(&e))?
        };
        if report.duplicate {
            // The replayed day is durable only if the finish that sealed it
            // committed. A failed commit poisons the handle (and left the
            // day in memory alone); one still in flight is waited for.
            self.persistence.drain().map_err(|e| ServeError::from_store(&e))?;
            let generation = self.persistence.generation();
            return Ok(FinishAck { report, generation, durable: true });
        }
        // The freeze runs on `&Engine` under the read lock — a short
        // critical section — then every tenant lock is released before
        // the commit is awaited: queries AND further span pushes flow
        // while the day's bytes hit storage. The ack still waits for
        // durability.
        let (handle, reports) = {
            let core = self.read_core();
            let handle =
                self.persistence.commit(&core.engine).map_err(|e| ServeError::from_store(&e))?;
            (handle, core.engine.reports().count())
        };
        let outcome = handle.wait().map_err(|e| ServeError::from_store(&e))?;
        self.persisted_reports.store(reports, Ordering::SeqCst);
        Ok(FinishAck { report, generation: outcome.generation, durable: true })
    }

    /// All stored (counters-only) reports, ascending by day.
    pub fn reports(&self) -> Vec<earlybird_engine::DayReport> {
        self.read_core().engine.reports().cloned().collect()
    }

    /// The stored report for one day.
    ///
    /// # Errors
    ///
    /// `404` when the day was never ingested.
    pub fn report(&self, day: Day) -> Result<earlybird_engine::DayReport, ServeError> {
        self.read_core()
            .engine
            .report(day)
            .cloned()
            .ok_or_else(|| ServeError::unknown_day(day.index()))
    }

    /// Alerts with `sequence >= since`; never blocks on the engine locks.
    pub fn alerts_since(&self, since: u64) -> AlertsPage {
        let alerts = self.alerts.since(since);
        AlertsPage { next_since: alerts.last().map_or(since, |a| a.sequence + 1), alerts }
    }

    /// Runs one investigation against a retained day (read lock only, so
    /// investigations proceed during commits).
    ///
    /// # Errors
    ///
    /// `400` for an unknown mode, `404` for an unretained day.
    pub fn investigate(&self, req: &InvestigateRequest) -> Result<InvestigationReport, ServeError> {
        let investigation = req.to_investigation()?;
        self.read_core()
            .engine
            .investigate(Day::new(req.day), investigation)
            .map_err(|e| ServeError::from_engine(&e))
    }

    /// One summary row for `GET /v1/tenants`.
    pub fn summary(&self) -> TenantSummary {
        let core = self.read_core();
        TenantSummary {
            name: self.name.clone(),
            days_ingested: core.engine.reports().count() as u64,
            open_days: core.open_days.len() as u64,
            // The engine's counter, not the log's: it survives restore,
            // so cursors held across a restart never see a sequence
            // handed out twice.
            next_alert_sequence: core.engine.next_alert_sequence(),
            span_parse_errors: self.metrics.span_parse_errors.get(),
            // Read from the shared metric cell, never the store itself:
            // taking the store mutex here would stall the listing behind
            // an in-flight commit.
            gc_failures: self.metrics.store_gc_failures.get(),
        }
    }

    /// The drain step of a graceful shutdown: drops open (never-acked)
    /// days and checkpoints the engine if any report is not yet covered
    /// by a commit. Returns `(checkpointed, open_days_dropped)`.
    ///
    /// # Errors
    ///
    /// `500` when the final commit fails.
    pub fn drain_and_checkpoint(&self) -> Result<(bool, u64), ServeError> {
        let dropped = {
            let mut core = self.write_core();
            let dropped = core.open_days.len() as u64;
            let bytes: usize = core.open_days.values().map(|o| o.bytes).sum();
            core.open_days.clear();
            self.open_bytes.fetch_sub(bytes, Ordering::SeqCst);
            self.metrics.open_bytes.add(-(bytes as i64));
            dropped
        };
        let (handle, reports) = {
            let core = self.read_core();
            let reports = core.engine.reports().count();
            if reports == self.persisted_reports.load(Ordering::SeqCst) {
                drop(core);
                // Nothing new to snapshot, but in-flight background
                // commits must still land before the shutdown ack.
                self.persistence.drain().map_err(|e| ServeError::from_store(&e))?;
                return Ok((false, dropped));
            }
            let handle =
                self.persistence.commit(&core.engine).map_err(|e| ServeError::from_store(&e))?;
            (handle, reports)
        };
        handle.wait().map_err(|e| ServeError::from_store(&e))?;
        self.persisted_reports.store(reports, Ordering::SeqCst);
        Ok((true, dropped))
    }
}
