//! Machine-readable perf smoke pass for CI: measures ingest throughput,
//! the metrics-instrumentation overhead on that hot path, parse-only and
//! interning microbenches,
//! checkpoint/restore bandwidth, the always-on cycle (ingest rate while
//! background checkpoints commit underneath, plus the freeze-stall
//! ceiling), store-compaction bandwidth, raw backend put bandwidth, and
//! the service loopback (multi-tenant HTTP ingest rec/s + query latency)
//! on the benchmark-scale LANL world, and writes a small JSON report
//! (`BENCH_10.json` by default) that CI uploads as a workflow artifact.
//! The checked-in `ci/BENCH_10.json` is the baseline the perf gate
//! (`ci/perf_gate.py`) compares against (`ci/BENCH_4.json` through
//! `ci/BENCH_9.json` are earlier PRs' readings, kept for the
//! trajectory). The report records `cpu_cores`, the regime a reading came
//! from.
//!
//! Record counts are read back from the attached [`MetricsRegistry`]
//! (`engine_records_total`, `serve_ingest_records_total`) and
//! cross-checked against the dataset, so the smoke pass also proves the
//! observability layer counts what actually ran. `obs_overhead_pct` is
//! the ingest wall-time cost of an enabled registry versus a disabled
//! one (alternating runs, per-arm minimum), gated `< 3%` absolutely.
//! `ingest_while_checkpoint_rec_s`, `checkpoint_ingest_ratio`, and
//! `checkpoint_stall_ms` are the always-on contract: the ratio is a
//! paired same-loop A/B against an idle ingest arm gated at >= 70%, and
//! the longest `Persistence::commit` critical section is gated by an
//! absolute ceiling.
//!
//! Numbers are medians (or per-arm minima) of a few short runs — a smoke
//! reading to catch collapses, not a calibrated benchmark; use `cargo
//! bench` for real measurements.
//!
//! Usage: `perf_smoke [output.json]`

use earlybird_engine::{
    compact_store, DayBatch, Engine, EngineBuilder, LifecycleConfig, LocalFsBackend, MemBackend,
    MetricsRegistry, ObjectStore, Persistence, SnapshotPolicy, StoreDir,
};
use earlybird_logmodel::{parse_dns_span, DomainInterner, ParsedChunk};
use earlybird_serve::{ServeClient, Server, ServerConfig, TenantSpec};
use earlybird_synthgen::lanl::LanlChallenge;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Median seconds of `runs` executions of `f`.
fn median_secs<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn fresh_engine(challenge: &LanlChallenge, registry: Arc<MetricsRegistry>) -> Engine {
    EngineBuilder::lanl()
        .metrics(registry)
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config")
}

fn ingest_all(challenge: &LanlChallenge, registry: Arc<MetricsRegistry>) -> Engine {
    let mut engine = fresh_engine(challenge, registry);
    for day in &challenge.dataset.days {
        engine.ingest_day(DayBatch::Dns(day));
    }
    engine
}

/// Tenants pushing concurrently in the service loopback measurement.
const SERVE_TENANTS: usize = 4;
/// Records in each tenant's bootstrap-day span.
const SERVE_DAY0_RECORDS: u32 = 100_000;
/// Records in each tenant's operation-day span.
const SERVE_DAY1_RECORDS: u32 = 50_000;
/// Internal hosts per service tenant.
const SERVE_HOSTS: u32 = 64;

/// Pre-rendered interchange text for one tenant's day: deterministic
/// background chatter over `SERVE_HOSTS` hosts and a few hundred domains.
fn serve_span_text(tenant: usize, day: u32, records: u32) -> String {
    let mut text = String::with_capacity(records as usize * 40);
    for i in 0..records {
        let host = i % SERVE_HOSTS;
        let ts = (u64::from(i) * 131) % 86_400;
        let domain = (i * 7 + day) % 509;
        text.push_str(&format!(
            "{ts}\t10.0.0.{host}\td{domain}.t{tenant}.example.c3\tA\t50.{}.{}.1\n",
            domain % 200,
            host
        ));
    }
    text
}

/// The service loopback measurement: a daemon on an in-memory root store
/// (so the wire + parse + engine path dominates, not the medium), with
/// `SERVE_TENANTS` clients each pushing pre-rendered spans into their own
/// tenant concurrently. Returns total records pushed, the aggregate
/// span-push rate, and the p50 of 100 warm query round trips.
fn serve_loopback() -> (u64, f64, f64) {
    let cfg = ServerConfig::default();
    let registry = Arc::clone(&cfg.metrics);
    let server = Server::bind(Box::new(MemBackend::new()), cfg).expect("bind loopback daemon");
    let addr = server.addr();
    let handle = server.spawn();

    let spans: Vec<(String, String, String)> = (0..SERVE_TENANTS)
        .map(|t| {
            (
                format!("bench{t}"),
                serve_span_text(t, 0, SERVE_DAY0_RECORDS),
                serve_span_text(t, 1, SERVE_DAY1_RECORDS),
            )
        })
        .collect();
    for (name, _, _) in &spans {
        let mut client = ServeClient::new(addr);
        client.create_tenant(name, &TenantSpec::lanl(SERVE_HOSTS, 1, 2)).expect("create tenant");
    }

    // Timed region: only the span pushes — the ingest hot path the
    // service promises stays within a small constant of the library's.
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (name, day0, day1) in &spans {
            scope.spawn(move || {
                let mut client = ServeClient::new(addr);
                let ack = client.push_span(name, 0, day0).expect("push day 0");
                assert_eq!(ack.records_pushed, u64::from(SERVE_DAY0_RECORDS));
                let ack = client.push_span(name, 1, day1).expect("push day 1");
                assert_eq!(ack.records_pushed, u64::from(SERVE_DAY1_RECORDS));
            });
        }
    });
    let push_secs = started.elapsed().as_secs_f64();
    // The record count comes from the daemon's own registry; it must
    // agree with what the clients pushed.
    let serve_records = registry.snapshot().counter_sum("serve_ingest_records_total", &[]);
    assert_eq!(
        serve_records,
        SERVE_TENANTS as u64 * u64::from(SERVE_DAY0_RECORDS + SERVE_DAY1_RECORDS),
        "daemon registry counts every pushed record"
    );
    let serve_ingest_rec_s = serve_records as f64 / push_secs;

    // Seal both days so the query phase reads real stored state.
    let mut client = ServeClient::new(addr);
    for (name, _, _) in &spans {
        client.finish_day(name, 0).expect("finish day 0");
        client.finish_day(name, 1).expect("finish day 1");
    }

    // Query latency: 100 warm round trips alternating the two read
    // routes across tenants, over one keep-alive connection.
    let mut samples: Vec<f64> = (0..100)
        .map(|i| {
            let (name, _, _) = &spans[i % SERVE_TENANTS];
            let started = Instant::now();
            if i % 2 == 0 {
                client.reports(name).expect("reports query");
            } else {
                client.alerts(name, 0).expect("alerts query");
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let serve_query_p50_ms = samples[samples.len() / 2];

    client.shutdown().expect("graceful shutdown");
    drop(client);
    handle.join();
    (serve_records, serve_ingest_rec_s, serve_query_p50_ms)
}

/// Lines in the parse-only microbench span.
const PARSE_LINES: u32 = 200_000;
/// Distinct names in the interner microbench working set.
const INTERN_NAMES: usize = 4096;
/// Hit-path passes over the interner working set per timed run.
const INTERN_PASSES: usize = 32;

/// Parse-only microbench: span-parses pre-rendered interchange text into a
/// reused chunk — the SWAR splitter, bytewise number parsers, and batched
/// interning with nothing downstream. Returns `(lines/s, MB/s)`.
fn parse_only() -> (f64, f64) {
    let text = serve_span_text(0, 0, PARSE_LINES);
    let domains = DomainInterner::new();
    let mut chunk = ParsedChunk::default();
    let secs = median_secs(5, || {
        chunk.clear();
        parse_dns_span(text.lines().enumerate().map(|(i, l)| (i + 1, l)), &domains, &mut chunk);
        assert_eq!(chunk.records.len(), PARSE_LINES as usize);
        assert!(chunk.errors.is_empty());
    });
    (f64::from(PARSE_LINES) / secs, text.len() as f64 / (1024.0 * 1024.0) / secs)
}

/// Interning microbench: hit-path lookups of an established working set —
/// the read-mostly snapshot fast path every parsed record's symbols take
/// once a name has been seen. Returns lookups per second.
fn intern_hits() -> f64 {
    let interner = DomainInterner::new();
    let names: Vec<String> =
        (0..INTERN_NAMES).map(|i| format!("host{i}.dept{}.example.c3", i % 57)).collect();
    for name in &names {
        interner.intern(name);
    }
    let secs = median_secs(5, || {
        let mut acc = 0u32;
        for _ in 0..INTERN_PASSES {
            for name in &names {
                acc = acc.wrapping_add(interner.intern(name).raw());
            }
        }
        std::hint::black_box(acc);
    });
    (INTERN_PASSES * INTERN_NAMES) as f64 / secs
}

/// Alternating enabled/disabled ingest passes for the overhead reading.
const OVERHEAD_RUNS: usize = 4;

/// Runs of the always-on ingest-under-checkpoint measurement.
const CHECKPOINT_RUNS: usize = 4;

/// The always-on cycle: the same full-world ingest, but with a background
/// [`Persistence`] worker committing after every day and never awaited
/// inside the loop — freezing is the only work on the ingest thread, and
/// serialization plus the store commit overlap the next day's ingest.
///
/// An idle arm (same loop, no persistence) alternates with the
/// checkpointing arm so the gated ratio compares two minima taken under
/// the same machine conditions; the phase-one ingest number is measured
/// seconds earlier and drifts enough on a busy box to make a cross-phase
/// ratio flaky. Returns `(records/s while checkpointing, max freeze
/// stall in ms, checkpointing/idle throughput ratio)`, per-arm
/// best-of-`CHECKPOINT_RUNS`.
fn ingest_under_checkpoint(challenge: &LanlChallenge, total_records: u64) -> (f64, f64, f64) {
    let mut idle_secs = f64::INFINITY;
    let mut under_secs = f64::INFINITY;
    let mut best_stall_ms = f64::INFINITY;
    for _ in 0..CHECKPOINT_RUNS {
        let mut engine = fresh_engine(challenge, Arc::new(MetricsRegistry::disabled()));
        let started = Instant::now();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
        }
        idle_secs = idle_secs.min(started.elapsed().as_secs_f64());

        let dir = StoreDir::create_with(MemBackend::new(), LifecycleConfig::default())
            .expect("create mem store");
        let store = Persistence::new(dir, SnapshotPolicy::default().background());
        let mut engine = fresh_engine(challenge, Arc::new(MetricsRegistry::disabled()));
        let mut max_stall = 0.0f64;
        let started = Instant::now();
        for day in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day));
            let freeze = Instant::now();
            let handle = store.commit(&engine).expect("freeze");
            max_stall = max_stall.max(freeze.elapsed().as_secs_f64() * 1e3);
            drop(handle); // durability is awaited once, outside the timed loop
        }
        let secs = started.elapsed().as_secs_f64();
        store.drain().expect("every queued commit lands");
        under_secs = under_secs.min(secs);
        best_stall_ms = best_stall_ms.min(max_stall);
    }
    (total_records as f64 / under_secs, best_stall_ms, idle_secs / under_secs)
}

fn main() {
    let out_path =
        std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| "BENCH_10.json".into());
    let cpu_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let challenge = earlybird_bench::lanl_world();
    let total_records: u64 = challenge.dataset.days.iter().map(|d| d.queries.len() as u64).sum();

    // Ingest throughput + instrumentation overhead: the full daily cycle
    // over every day of the world, run with a disabled and an enabled
    // registry in alternation. The per-arm minimum damps scheduler noise
    // (both arms see the same machine), the gated throughput metric stays
    // the uninstrumented reading (comparable with the BENCH_4..7
    // trajectory), and the enabled arm's record count is read back from
    // the registry itself.
    let mut disabled_secs = f64::INFINITY;
    let mut enabled_secs = f64::INFINITY;
    let mut registry_records = 0u64;
    for _ in 0..OVERHEAD_RUNS {
        let start = Instant::now();
        drop(ingest_all(&challenge, Arc::new(MetricsRegistry::disabled())));
        disabled_secs = disabled_secs.min(start.elapsed().as_secs_f64());

        let registry = Arc::new(MetricsRegistry::new());
        let start = Instant::now();
        drop(ingest_all(&challenge, Arc::clone(&registry)));
        enabled_secs = enabled_secs.min(start.elapsed().as_secs_f64());
        registry_records = registry.snapshot().counter_sum("engine_records_total", &[]);
    }
    assert_eq!(registry_records, total_records, "engine registry counts every ingested record");
    let ingest_records_per_sec = total_records as f64 / disabled_secs;
    let obs_overhead_pct = (enabled_secs - disabled_secs) / disabled_secs * 100.0;

    // Hot-path microbenches: parse-only span throughput and interner
    // hit-path lookups (new in schema v4).
    let (parse_lines_per_sec, parse_mb_per_sec) = parse_only();
    let intern_hits_per_sec = intern_hits();

    // Checkpoint / restore bandwidth over the fully loaded engine.
    let engine = ingest_all(&challenge, Arc::new(MetricsRegistry::disabled()));
    let mut snapshot = Vec::new();
    engine.freeze().write_to(&mut snapshot).expect("checkpoint succeeds");
    let snapshot_bytes = snapshot.len() as u64;
    let checkpoint_secs = median_secs(5, || {
        let mut out = Vec::with_capacity(snapshot.len());
        engine.freeze().write_to(&mut out).expect("checkpoint succeeds");
    });
    let restore_secs = median_secs(5, || {
        // Bare deserialization, without store-dir plumbing.
        EngineBuilder::lanl().restore_stream(&mut snapshot.as_slice()).expect("snapshot restores");
    });
    let mib = 1024.0 * 1024.0;
    let checkpoint_mb_per_sec = snapshot_bytes as f64 / mib / checkpoint_secs;
    let restore_mb_per_sec = snapshot_bytes as f64 / mib / restore_secs;

    // Compaction bandwidth: fold a bootstrap full block + 6 day segments
    // back into one full block (chain bytes in) — the same fixture the
    // criterion compaction bench uses.
    let master = std::env::temp_dir().join(format!("earlybird-perf-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&master);
    let chain_bytes = earlybird_bench::build_lanl_chain(&challenge, &master);
    let scratch = master.with_extension("scratch");
    let compaction_secs = median_secs(3, || {
        earlybird_bench::copy_store_dir(&master, &scratch);
        let mut dir = StoreDir::open(&scratch, LifecycleConfig::default()).expect("open copy");
        compact_store(&mut dir).expect("compaction succeeds");
    });
    let compaction_mb_per_sec = chain_bytes as f64 / mib / compaction_secs;
    let _ = std::fs::remove_dir_all(&master);
    let _ = std::fs::remove_dir_all(&scratch);

    // Raw backend put bandwidth: stage + finalize the full snapshot as one
    // visible-or-absent object through the local-filesystem backend — the
    // floor under every StoreDir commit.
    let put_root =
        std::env::temp_dir().join(format!("earlybird-perf-smoke-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&put_root);
    let backend = LocalFsBackend::new(&put_root).expect("create backend root");
    let backend_put_secs = median_secs(5, || {
        let mut upload = backend.put_atomic("bench.ebstore").expect("begin upload");
        upload.write_all(&snapshot).expect("stage snapshot");
        upload.finalize().expect("finalize upload");
    });
    let backend_put_mb_s = snapshot_bytes as f64 / mib / backend_put_secs;
    let _ = std::fs::remove_dir_all(&put_root);

    // The always-on cycle: ingest rate with background checkpoints
    // committing underneath, the worst freeze stall the ingest thread
    // saw, and the paired checkpointing/idle throughput ratio.
    let (ingest_while_checkpoint_rec_s, checkpoint_stall_ms, checkpoint_ingest_ratio) =
        ingest_under_checkpoint(&challenge, total_records);

    // Service loopback: concurrent multi-tenant HTTP ingest + queries.
    let (serve_records, serve_ingest_rec_s, serve_query_p50_ms) = serve_loopback();

    let json = format!(
        "{{\n  \"schema\": \"earlybird-perf-smoke-v7\",\n  \"suite\": \"lanl_small\",\n  \
         \"cpu_cores\": {cpu_cores},\n  \
         \"ingest_records\": {registry_records},\n  \
         \"ingest_records_per_sec\": {ingest_records_per_sec:.0},\n  \
         \"obs_overhead_pct\": {obs_overhead_pct:.2},\n  \
         \"parse_lines_per_sec\": {parse_lines_per_sec:.0},\n  \
         \"parse_mb_per_sec\": {parse_mb_per_sec:.1},\n  \
         \"intern_hits_per_sec\": {intern_hits_per_sec:.0},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"checkpoint_mb_per_sec\": {checkpoint_mb_per_sec:.1},\n  \
         \"restore_mb_per_sec\": {restore_mb_per_sec:.1},\n  \
         \"ingest_while_checkpoint_rec_s\": {ingest_while_checkpoint_rec_s:.0},\n  \
         \"checkpoint_ingest_ratio\": {checkpoint_ingest_ratio:.3},\n  \
         \"checkpoint_stall_ms\": {checkpoint_stall_ms:.3},\n  \
         \"compaction_chain_bytes\": {chain_bytes},\n  \
         \"compaction_mb_per_sec\": {compaction_mb_per_sec:.1},\n  \
         \"backend_put_mb_s\": {backend_put_mb_s:.1},\n  \
         \"serve_ingest_records\": {serve_records},\n  \
         \"serve_ingest_rec_s\": {serve_ingest_rec_s:.0},\n  \
         \"serve_query_p50_ms\": {serve_query_p50_ms:.3}\n}}\n"
    );
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create report directory");
    }
    std::fs::write(&out_path, &json).expect("write perf report");
    println!("{json}");
    println!("perf smoke written to {}", out_path.display());
}
