//! One trial of the library path: lines in → alerts durable → restore →
//! compact → investigate, through the public facade only.
//!
//! Each tenant of the world gets a fresh engine (with a namespace of its
//! own), a fresh [`StoreDir`] on [`LocalFsBackend`] with automatic
//! compaction disabled, and a synchronous [`Persistence`]. Days are fed in
//! a closed loop, tenants alternating: `begin_day` → `push_lines` per span
//! → `finish` → `commit().wait()` → read the day's report back.

use crate::checks::Checks;
use crate::trace::Tracer;
use crate::worlds::{Case, Probe, Tenant, World};
use earlybird::engine::{
    CompactionTrigger, DayReport, Engine, EngineBuilder, IngestSource, Investigation,
    LifecycleConfig, MetricsRegistry, MetricsSnapshot, Persistence, RetentionPolicy,
    SnapshotPolicy, StoreDir,
};
use earlybird::logmodel::DomainInterner;
use std::path::Path;
use std::sync::Arc;

/// What a trial runs beyond the ingest loop.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Ingest only (the untraced arm of an overhead pair).
    IngestOnly,
    /// Ingest, restore, compact, investigate.
    Lifecycle,
    /// The lifecycle plus the output checks that need a second restore.
    Verify,
}

pub struct TrialOpts<'a> {
    pub tracer: &'a Tracer,
    /// Attach an enabled registry to every engine and store.
    pub registry: bool,
    pub depth: Depth,
    /// Scratch directory for this trial's stores; removed afterwards.
    pub root: &'a Path,
}

/// Stage wall time the program's own registry recorded during one trial.
#[derive(Clone, Copy, Default)]
pub struct StageSecs {
    pub parse: f64,
    pub reduce: f64,
    pub profile: f64,
    pub cc: f64,
    pub bp: f64,
    pub encode: f64,
    pub put: f64,
    pub swap: f64,
    pub get: f64,
}

#[derive(Default)]
pub struct LibraryTrial {
    pub records: u64,
    pub ingest_s: f64,
    pub push_s: f64,
    pub finish_s: f64,
    pub commit_s: f64,
    pub push_ms: Vec<f64>,
    pub day_close_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub restore_s: f64,
    pub compact_s: f64,
    pub investigate_ms: Vec<f64>,
    pub cc_scores_s: f64,
    pub chain_bytes: u64,
    pub segments: u64,
    pub compact_bytes_out: u64,
    pub symbols: u64,
    pub domains_all: u64,
    pub domains_kept: u64,
    pub rare_domains: u64,
    pub cc_detections: u64,
    pub bp_reported: u64,
    pub alerts: u64,
    pub true_detections: u64,
    pub false_detections: u64,
    /// Every tenant's stored reports, serialized; equal across trials
    /// and across restore and compaction.
    pub reports_json: Vec<String>,
    /// Each day's report as `finish` returned it, per tenant, for the
    /// daemon equivalence check.
    pub day_reports: Vec<Vec<String>>,
    pub stages: Option<StageSecs>,
    /// The live engines, for the snapshot-cost measurements of a traced
    /// run.
    pub engines: Vec<Engine>,
}

/// A report with its one nondeterministic field cleared, as JSON.
pub fn report_json(report: &DayReport) -> String {
    let mut r = report.clone();
    r.stages.wall_micros = 0;
    serde_json::to_string(&r).expect("a day report serializes")
}

fn reports_json(engine: &Engine) -> String {
    engine.reports().map(report_json).collect::<Vec<_>>().join("\n")
}

pub fn builder_for(tenant: &Tenant) -> EngineBuilder {
    let builder = match &tenant.proxy {
        None => EngineBuilder::lanl(),
        Some(side) => EngineBuilder::enterprise().whois(side.whois.clone()),
    };
    // The paper's daily loop: C&C detections are expanded by belief
    // propagation before the day's alerts go out.
    builder.auto_investigate(true)
}

pub fn lifecycle() -> LifecycleConfig {
    LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy::default(),
    }
}

fn investigation(case: &Case) -> Investigation {
    match &case.probe {
        Probe::HintHosts(hosts) => Investigation::from_hint_hosts(hosts.iter().copied()),
        Probe::NoHint => Investigation::no_hint(),
        Probe::SeedNames(names) => Investigation::from_seed_names(names.iter().cloned()),
    }
}

/// Tallies one investigation's reported names against its truth.
pub fn tally(case: &Case, reported: &[String], hits: &mut u64, misses: &mut u64) {
    let distinct: std::collections::BTreeSet<&str> = reported.iter().map(String::as_str).collect();
    for name in distinct {
        if case.truth.is_hit(name) {
            *hits += 1;
        } else {
            *misses += 1;
        }
    }
}

fn stage_secs(snapshot: &MetricsSnapshot) -> StageSecs {
    let stage = |name: &str| {
        snapshot.histogram_totals("engine_stage_micros", &[("stage", name)]).sum as f64 / 1e6
    };
    let store = |name: &str| snapshot.histogram_totals(name, &[]).sum as f64 / 1e6;
    StageSecs {
        parse: stage("parse"),
        reduce: stage("reduce"),
        profile: stage("profile"),
        cc: stage("cc"),
        bp: stage("bp"),
        encode: stage("checkpoint"),
        put: store("store_put_micros"),
        swap: store("store_swap_micros"),
        get: store("store_get_micros"),
    }
}

/// Runs one trial. Failed operations and failed output checks are
/// counted in `checks`; the trial itself never panics on them.
pub fn trial(world: &World, opts: &TrialOpts<'_>, checks: &mut Checks) -> LibraryTrial {
    let tracer = opts.tracer;
    let registry =
        Arc::new(if opts.registry { MetricsRegistry::new() } else { MetricsRegistry::disabled() });
    let mut out = LibraryTrial::default();

    let mut engines = Vec::new();
    let mut stores = Vec::new();
    let mut interners = Vec::new();
    for tenant in &world.tenants {
        let domains = Arc::new(DomainInterner::new());
        let engine = builder_for(tenant)
            .metrics(Arc::clone(&registry))
            .build(Arc::clone(&domains), tenant.meta.clone())
            .expect("the workload's engine configuration is valid");
        let mut dir = StoreDir::create(opts.root.join(&tenant.name), lifecycle())
            .expect("a fresh store directory under the benchmark's scratch root");
        if opts.registry {
            dir.attach_metrics(&registry, &[]);
        }
        engines.push(engine);
        stores.push(Persistence::new(dir, SnapshotPolicy::default()));
        interners.push(domains);
        out.day_reports.push(Vec::new());
    }

    // Lines in → alerts durable.
    let ((), ingest_s) = tracer.span("ingest", || {
        for d in 0..world.n_days() {
            for (t, tenant) in world.tenants.iter().enumerate() {
                let Some(day) = tenant.days.get(d) else { continue };
                let source = match &tenant.proxy {
                    None => IngestSource::Dns,
                    Some(side) => IngestSource::Proxy { dhcp: &side.dhcp },
                };
                let engine = &mut engines[t];
                let (ingest, push_s) = tracer.span("engine.push", move || {
                    let mut ingest = engine.begin_day(day.day, source);
                    let mut errors = 0;
                    for span in &day.spans {
                        errors += ingest.push_lines(span).len();
                    }
                    (ingest, errors)
                });
                let (ingest, parse_errors) = ingest;
                checks.lines(day.records as u64, parse_errors as u64, || {
                    format!("{}: day {} has {parse_errors} parse errors", tenant.name, day.day)
                });
                let (report, finish_s) = tracer.span("engine.finish", move || ingest.try_finish());
                let (commit, commit_s) = tracer.span("store.commit", || {
                    stores[t].commit(&engines[t]).and_then(|handle| handle.wait())
                });
                let (json, query_s) = tracer.span("engine.query", || {
                    engines[t].report(day.day).map(|stored| {
                        serde_json::to_string(stored).expect("a day report serializes")
                    })
                });
                checks.expect(json.is_some(), || format!("day {} has no stored report", day.day));
                checks.expect(commit.is_ok(), || format!("day {} commit: {commit:?}", day.day));
                match report {
                    Ok(report) => {
                        checks.expect(
                            report.stages.records_in == day.records && !report.duplicate,
                            || {
                                format!(
                                    "{}: day {} ingested {} of {} records",
                                    tenant.name, day.day, report.stages.records_in, day.records
                                )
                            },
                        );
                        if !report.bootstrap {
                            out.day_close_ms.push((finish_s + commit_s) * 1e3);
                            out.domains_all += report.stages.domains_all as u64;
                            out.domains_kept += report.stages.domains_after_server_filter as u64;
                            out.rare_domains += report.stages.rare_destinations as u64;
                            out.cc_detections += report.stages.cc_detections as u64;
                            out.bp_reported += report.stages.bp_labeled as u64;
                            out.alerts += report.stages.alerts_emitted as u64;
                        }
                        if opts.depth == Depth::Verify {
                            out.day_reports[t].push(report_json(&report));
                        }
                    }
                    Err(e) => checks.fail(format!("day {} finish: {e}", day.day)),
                }
                out.push_ms.push(push_s * 1e3);
                out.query_ms.push(query_s * 1e3);
                out.push_s += push_s;
                out.finish_s += finish_s;
                out.commit_s += commit_s;
            }
        }
    });
    out.ingest_s = ingest_s;
    // Read before the investigations below add their own C&C and
    // belief-propagation time to the same series.
    let ingest_stages = opts.registry.then(|| stage_secs(&registry.snapshot()));
    out.records = world.records();
    out.symbols = interners.iter().map(|i| i.len() as u64).sum();
    out.reports_json = engines.iter().map(reports_json).collect();

    if opts.depth != Depth::IngestOnly {
        for (t, tenant) in world.tenants.iter().enumerate() {
            {
                let dir = stores[t].store();
                out.chain_bytes += dir.chain_bytes();
                out.segments += dir.segment_count() as u64;
            }
            let restore = |label: &str, checks: &mut Checks| {
                let builder = EngineBuilder::lanl().metrics(Arc::clone(&registry));
                let (restored, secs) = tracer.span("store.restore", || stores[t].restore(builder));
                match restored {
                    Ok(restored) => checks
                        .expect(reports_json(&restored) == out.reports_json[t], || {
                            format!("{}: reports differ after {label}", tenant.name)
                        }),
                    Err(e) => checks.fail(format!("{}: restore after {label}: {e}", tenant.name)),
                }
                secs
            };
            out.restore_s += restore("ingest", checks);
            let (compacted, compact_s) = tracer.span("store.compact", || stores[t].compact());
            out.compact_s += compact_s;
            match compacted {
                Ok(report) => out.compact_bytes_out += report.bytes_after,
                Err(e) => checks.fail(format!("{}: compact: {e}", tenant.name)),
            }
            if opts.depth == Depth::Verify {
                restore("compaction", checks);
            }

            let engine = &mut engines[t];
            if let Some(side) = &tenant.proxy {
                let (trained, _) = tracer.span("core.train", || {
                    engine.train_enterprise(side.train_end, &side.vt, 0.4, 0.4)
                });
                checks.expect(trained.is_ok(), || format!("enterprise training: {trained:?}"));
            }
            for case in &tenant.cases {
                let (found, secs) = tracer
                    .span("core.investigate", || engine.investigate(case.day, investigation(case)));
                out.investigate_ms.push(secs * 1e3);
                checks.expect(found.is_ok(), || format!("investigate day {}", case.day));
                if let Ok(found) = found {
                    tally(
                        case,
                        &found.reported_names(),
                        &mut out.true_detections,
                        &mut out.false_detections,
                    );
                }
            }
            if opts.registry {
                let days: Vec<_> = engine.days().collect();
                let (_, secs) = tracer.span("core.cc_scores", || {
                    for day in days {
                        std::hint::black_box(engine.cc_scores(day).ok());
                    }
                });
                out.cc_scores_s += secs;
            }
        }
    }

    if let Some(mut stages) = ingest_stages {
        tracer.aggregate("engine.push", "engine.stage_parse", stages.parse);
        tracer.aggregate("engine.push", "pipeline.reduce", stages.reduce);
        tracer.aggregate("engine.finish", "pipeline.profile", stages.profile);
        tracer.aggregate("engine.finish", "core.cc", stages.cc);
        tracer.aggregate("engine.finish", "core.bp", stages.bp);
        tracer.aggregate("store.commit", "engine.checkpoint", stages.encode);
        tracer.aggregate("store.commit", "store.put", stages.put);
        tracer.aggregate("store.commit", "store.swap", stages.swap);
        stages.get = stage_secs(&registry.snapshot()).get;
        tracer.aggregate("store.restore", "store.get", stages.get);
        out.stages = Some(stages);
    }
    drop(stores);
    let _ = std::fs::remove_dir_all(opts.root);
    out.engines = engines;
    out
}
