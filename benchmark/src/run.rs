//! One run of one workload: set-up, a verified warm-up, the measured
//! trials, and the metrics they add up to.
//!
//! Protocol. Set-up (world generation and text rendering) is repeated and
//! its median reported. A warm-up trial follows whose timings are
//! discarded and whose outputs are checked in full; every later trial
//! must reproduce its reports and detections exactly. Measured trials
//! then run back to back, single process, closed loop, until the run's
//! time budget is spent and at least [`Protocol::min_trials`] are in.
//! Rates and durations are medians of per-trial values; latency
//! percentiles pool the samples of all measured trials.
//!
//! An untraced run (`--trace 0`) attaches no enabled registry to the
//! library path and records no spans, and yields the end-to-end metrics.
//! A traced run (`--trace 1`) alternates untraced and traced arms in
//! pairs — the difference is the tracing overhead — and yields the
//! per-layer metrics from the traced arms.

use crate::checks::Checks;
use crate::layers::{parse_costs, snapshot_costs};
use crate::library::{self, Depth, LibraryTrial, TrialOpts};
use crate::serve::{self, ServeOpts, ServeTrial};
use crate::stats::{median, percentile, summarize};
use crate::trace::Tracer;
use crate::worlds::{self, World};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scale ÷10 and two trials: proves the harness, measures nothing.
    pub quick: bool,
}

struct Protocol {
    scale: f64,
    setup_reps: usize,
    min_trials: usize,
}

/// Safety net against a mis-sized world: no run measures more trials.
const MAX_TRIALS: usize = 64;

impl Protocol {
    fn of(opts: &RunOpts) -> Protocol {
        if opts.quick {
            Protocol { scale: 0.1, setup_reps: 1, min_trials: 2 }
        } else {
            Protocol { scale: 1.0, setup_reps: if opts.traced { 1 } else { 3 }, min_trials: 5 }
        }
    }
}

/// One reported metric: the figure that goes on the run's last line and
/// the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Printed beside the metric's table row.
    pub note: String,
}

impl Metric {
    /// The median of per-trial values.
    fn median(name: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name, value: median(&samples), samples, note: String::new() }
    }

    /// A percentile of samples pooled across trials.
    fn pooled(name: &'static str, samples: Vec<f64>, p: f64) -> Metric {
        Metric { name, value: percentile(&samples, p), samples, note: String::new() }
    }

    /// A count or size that has one value per run.
    fn single(name: &'static str, value: f64) -> Metric {
        Metric { name, value, samples: vec![value], note: String::new() }
    }
}

pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub trials: usize,
    pub world: String,
    pub tracer: Option<Tracer>,
}

/// `benchmark/out`, whether the process runs at the repository root or
/// inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Reads a `kB` field of `/proc/self/status` in MiB.
fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one measured trial contributes, whichever path produced it.
struct Sample {
    records: u64,
    wall_s: f64,
    day_close_ms: Vec<f64>,
    restore_s: f64,
    compact_s: f64,
    detections: (u64, u64),
}

impl Sample {
    fn of_library(t: LibraryTrial) -> Sample {
        Sample {
            records: t.records,
            wall_s: t.ingest_s,
            day_close_ms: t.day_close_ms,
            restore_s: t.restore_s,
            compact_s: t.compact_s,
            detections: (t.true_detections, t.false_detections),
        }
    }

    fn of_serve(t: ServeTrial) -> Sample {
        Sample {
            records: t.records,
            wall_s: t.session_s,
            day_close_ms: t.day_close_ms,
            restore_s: t.cold_start_s,
            compact_s: t.compact_s,
            detections: (t.true_detections, t.false_detections),
        }
    }
}

fn pool(samples: &[Sample], f: impl Fn(&Sample) -> &Vec<f64>) -> Vec<f64> {
    samples.iter().flat_map(|s| f(s).iter().copied()).collect()
}

fn each(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// The detection guard: a run whose detections fall under the workload's
/// floors is not correct, however fast it was. Later trials must reproduce
/// the warm-up's detections exactly, so checking those covers the run.
/// `--quick` worlds are too small for the floors and skip it.
fn check_detections(
    world: &World,
    opts: &RunOpts,
    (hits, misses): (u64, u64),
    checks: &mut Checks,
) {
    if opts.quick {
        return;
    }
    let tdr = hits as f64 / (hits + misses).max(1) as f64;
    let per_case = hits as f64 / world.cases().max(1) as f64;
    let guard = &world.guard;
    checks.expect(tdr >= guard.min_tdr && per_case >= guard.min_hits_per_case, || {
        format!(
            "detection guard: TDR {tdr:.3} (floor {}), {per_case:.2} true detections per case \
             (floor {})",
            guard.min_tdr, guard.min_hits_per_case
        )
    });
}

/// Whether another trial of about `last_s` seconds belongs in the run.
fn keep_going(done: usize, min: usize, started: Instant, last_s: f64, budget_s: f64) -> bool {
    done < min || (done < MAX_TRIALS && started.elapsed().as_secs_f64() + last_s <= budget_s)
}

/// Runs `opts.workload` once.
///
/// # Panics
///
/// Panics when the scratch directory cannot be created or the daemon
/// cannot bind; failed operations and output checks are counted, not
/// panicked on.
pub fn run(opts: &RunOpts) -> RunOutput {
    let protocol = Protocol::of(opts);
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create the benchmark's scratch directory");

    let mut setup_s = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..protocol.setup_reps {
        drop(world.take());
        let started = Instant::now();
        world = Some(worlds::generate(&opts.workload, opts.seed, protocol.scale));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up repetition");
    let rss_after_setup = proc_status_mib("VmRSS:");
    let summary = format!(
        "{}: {} tenant(s), {} days, {} records, {:.1} MB of text",
        world.workload,
        world.tenants.len(),
        world.n_days(),
        world.records(),
        world.bytes() as f64 / 1e6
    );

    let mut out = if opts.traced {
        run_traced(&world, opts, &protocol, &scratch)
    } else {
        run_untraced(&world, opts, &protocol, &scratch, setup_s, rss_after_setup)
    };
    out.world = summary;
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

fn run_untraced(
    world: &World,
    opts: &RunOpts,
    protocol: &Protocol,
    scratch: &Path,
    setup_s: Vec<f64>,
    rss_after_setup: f64,
) -> RunOutput {
    let tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let is_daemon = world.workload == "serve_loop";
    let (lib_root, daemon_root) = (scratch.join("library"), scratch.join("daemon"));
    let lib_opts = |depth| TrialOpts { tracer: &tracer, registry: false, depth, root: &lib_root };

    // Warm-up with every output check; its timings are discarded.
    let reference = library::trial(world, &lib_opts(Depth::Verify), &mut checks);
    let mut expected = (reference.true_detections, reference.false_detections);
    if is_daemon {
        let daemon_opts = ServeOpts {
            tracer: &tracer,
            registry: true,
            reference: Some(&reference),
            root: &daemon_root,
        };
        let warm = serve::trial(world, &daemon_opts, &mut checks);
        expected = (warm.true_detections, warm.false_detections);
    }
    check_detections(world, opts, expected, &mut checks);

    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut last_s = 0.0;
    while keep_going(samples.len(), protocol.min_trials, started, last_s, opts.seconds) {
        let trial_started = Instant::now();
        let sample = if is_daemon {
            let daemon_opts =
                ServeOpts { tracer: &tracer, registry: true, reference: None, root: &daemon_root };
            Sample::of_serve(serve::trial(world, &daemon_opts, &mut checks))
        } else {
            let trial = library::trial(world, &lib_opts(Depth::Lifecycle), &mut checks);
            checks.expect(trial.reports_json == reference.reports_json, || {
                "a trial's reports differ from the warm-up's".to_owned()
            });
            Sample::of_library(trial)
        };
        checks.expect(sample.detections == expected, || {
            format!("detections {:?} differ from the warm-up's {expected:?}", sample.detections)
        });
        last_s = trial_started.elapsed().as_secs_f64();
        samples.push(sample);
    }

    let metrics = vec![
        Metric::median("setup_s", setup_s),
        Metric::median("ingest_rec_s", each(&samples, |s| s.records as f64 / s.wall_s)),
        Metric::pooled("day_close_p50_ms", pool(&samples, |s| &s.day_close_ms), 50.0),
        Metric::median("restore_s", each(&samples, |s| s.restore_s)),
        Metric::median("compact_s", each(&samples, |s| s.compact_s)),
        Metric::single("peak_rss_mb", proc_status_mib("VmHWM:") - rss_after_setup),
    ];
    RunOutput { metrics, checks, trials: samples.len(), world: String::new(), tracer: None }
}

/// Per-pair and per-trial readings of a traced run.
#[derive(Default)]
struct Traced {
    library: Vec<LibraryTrial>,
    daemon: Vec<ServeTrial>,
    obs_overhead_pct: Vec<f64>,
    serve_overhead_pct: Vec<f64>,
    freeze_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    raw_put_mb_s: Vec<f64>,
}

fn run_traced(world: &World, opts: &RunOpts, protocol: &Protocol, scratch: &Path) -> RunOutput {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut checks = Checks::default();
    let is_daemon = world.workload == "serve_loop";
    let (lib_root, daemon_root) = (scratch.join("library"), scratch.join("daemon"));
    let lib = |tracer, registry, depth| TrialOpts { tracer, registry, depth, root: &lib_root };
    let daemon =
        |tracer, registry, reference| ServeOpts { tracer, registry, reference, root: &daemon_root };

    let reference = library::trial(world, &lib(&tracer, true, Depth::Verify), &mut checks);
    let mut expected = (reference.true_detections, reference.false_detections);
    if is_daemon {
        let warm = serve::trial(world, &daemon(&tracer, true, Some(&reference)), &mut checks);
        expected = (warm.true_detections, warm.false_detections);
    }
    check_detections(world, opts, expected, &mut checks);

    let mut parse_cold_s = Vec::new();
    let mut parse_warm_s = Vec::new();
    for _ in 0..protocol.min_trials.min(3) {
        let costs = parse_costs(world, &tracer, &mut checks);
        parse_cold_s.push(costs.cold_s);
        parse_warm_s.push(costs.warm_s);
    }

    let mut t = Traced::default();
    let started = Instant::now();
    let mut last_s = 0.0;
    while keep_going(t.obs_overhead_pct.len(), protocol.min_trials, started, last_s, opts.seconds) {
        let pair_started = Instant::now();
        let pair = t.obs_overhead_pct.len();
        tracer.set_trial(pair as u32 + 1);
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        // Alternate which arm goes first, so drift cancels over pairs.
        let plain_first = pair % 2 == 0;
        for plain_arm in [plain_first, !plain_first] {
            if plain_arm {
                plain_s = if is_daemon {
                    serve::trial(world, &daemon(&quiet, false, None), &mut checks).session_s
                } else {
                    library::trial(world, &lib(&quiet, false, Depth::IngestOnly), &mut checks)
                        .ingest_s
                };
            } else {
                let replica =
                    library::trial(world, &lib(&tracer, true, Depth::Lifecycle), &mut checks);
                checks.expect(replica.reports_json == reference.reports_json, || {
                    "a traced trial's reports differ from the warm-up's".to_owned()
                });
                let costs =
                    snapshot_costs(&replica.engines, &scratch.join("raw"), &tracer, &mut checks);
                t.freeze_s.push(costs.freeze_s);
                t.encode_s.push(costs.encode_s);
                t.decode_s.push(costs.decode_s);
                t.raw_put_mb_s.push(costs.bytes as f64 / 1e6 / costs.raw_put_s);
                traced_s = replica.ingest_s;
                if is_daemon {
                    let session = serve::trial(world, &daemon(&tracer, true, None), &mut checks);
                    traced_s = session.session_s;
                    t.serve_overhead_pct
                        .push((session.session_s - replica.ingest_s) / replica.ingest_s * 100.0);
                    t.daemon.push(session);
                }
                t.library.push(LibraryTrial { engines: Vec::new(), ..replica });
            }
        }
        t.obs_overhead_pct.push((traced_s - plain_s) / plain_s * 100.0);
        last_s = pair_started.elapsed().as_secs_f64();
    }

    let trials = t.obs_overhead_pct.len();
    let metrics = layer_metrics(world, &t, &tracer, parse_cold_s, parse_warm_s, &mut checks);
    RunOutput { metrics, checks, trials, world: String::new(), tracer: Some(tracer) }
}

fn layer_metrics(
    world: &World,
    t: &Traced,
    tracer: &Tracer,
    parse_cold_s: Vec<f64>,
    parse_warm_s: Vec<f64>,
    checks: &mut Checks,
) -> Vec<Metric> {
    let lib = &t.library;
    let per = |f: &dyn Fn(&LibraryTrial) -> f64| lib.iter().map(f).collect::<Vec<f64>>();
    let stage = |f: &dyn Fn(&library::StageSecs) -> f64| {
        per(&|l| f(l.stages.as_ref().expect("a traced trial has registry stage times")))
    };
    let last = lib.last().expect("a traced run measures at least one trial");
    let records = world.records() as f64;
    let detected = (last.true_detections + last.false_detections).max(1) as f64;

    // The path the workload's callers take: the daemon session for
    // `serve_loop`, the library ingest loop otherwise.
    let pooled = |library: &dyn Fn(&LibraryTrial) -> &Vec<f64>,
                  daemon: &dyn Fn(&ServeTrial) -> &Vec<f64>| {
        if t.daemon.is_empty() {
            lib.iter().flat_map(|l| library(l).iter().copied()).collect::<Vec<f64>>()
        } else {
            t.daemon.iter().flat_map(|d| daemon(d).iter().copied()).collect()
        }
    };
    let push_ms = pooled(&|l| &l.push_ms, &|d| &d.push_ms);
    let day_close_ms = pooled(&|l| &l.day_close_ms, &|d| &d.day_close_ms);
    let query_ms = pooled(&|l| &l.query_ms, &|d| &d.query_ms);
    let investigate_ms = pooled(&|l| &l.investigate_ms, &|d| &d.investigate_ms);

    let root_span = if t.daemon.is_empty() { "ingest" } else { "serve.session" };
    let (root_s, covered_s) = tracer.coverage(root_span);
    let coverage_pct = covered_s / root_s * 100.0;
    checks.expect(coverage_pct >= 95.0, || {
        format!("the layer spans cover only {coverage_pct:.1}% of the {root_span} wall")
    });

    let overhead = summarize(&t.obs_overhead_pct);
    let overhead_iqr = overhead.q3 - overhead.q1;
    let resolved = overhead_iqr <= overhead.median.abs();

    let daemon_sum = |f: &dyn Fn(&ServeTrial) -> f64| t.daemon.last().map_or(0.0, f);
    let finish_commit_pct = daemon_sum(&|d| d.finish_commit_s / d.finish_s * 100.0);

    let warm_s = median(&parse_warm_s);
    vec![
        Metric::median("logmodel.parse_cold_s", parse_cold_s.clone()),
        Metric::median("logmodel.parse_warm_s", parse_warm_s),
        Metric::single("logmodel.intern_miss_s", median(&parse_cold_s) - warm_s),
        Metric::single("logmodel.parse_lines_s", records / warm_s),
        Metric::single("logmodel.bytes_in", world.bytes() as f64),
        Metric::single("logmodel.symbols", last.symbols as f64),
        Metric::single("logmodel.parse_errors", checks.parse_errors as f64),
        Metric::median("pipeline.reduce_s", stage(&|s| s.reduce)),
        Metric::median("pipeline.profile_s", stage(&|s| s.profile)),
        Metric::single(
            "pipeline.kept_pct",
            last.domains_kept as f64 / (last.domains_all.max(1)) as f64 * 100.0,
        ),
        Metric::single("pipeline.rare_domains", last.rare_domains as f64),
        Metric::median("core.cc_s", stage(&|s| s.cc)),
        Metric::median("core.bp_s", stage(&|s| s.bp)),
        Metric::median("core.cc_scores_s", per(&|l| l.cc_scores_s)),
        Metric::pooled("core.investigate_p50_ms", investigate_ms, 50.0),
        Metric::single("core.cc_detections", last.cc_detections as f64),
        Metric::single("core.bp_reported", last.bp_reported as f64),
        Metric::single("core.alerts", last.alerts as f64),
        Metric::single("core.detect_tdr", last.true_detections as f64 / detected),
        Metric::single("core.detect_fdr", last.false_detections as f64 / detected),
        Metric::median("engine.push_s", per(&|l| l.push_s)),
        Metric::median("engine.finish_s", per(&|l| l.finish_s)),
        Metric::median("engine.freeze_s", t.freeze_s.clone()),
        Metric::median("engine.encode_s", t.encode_s.clone()),
        Metric::median("engine.stage_parse_s", stage(&|s| s.parse)),
        Metric::median("store.commit_s", per(&|l| l.commit_s)),
        Metric::median("store.put_s", stage(&|s| s.put)),
        Metric::median("store.swap_s", stage(&|s| s.swap)),
        Metric::median("store.get_s", stage(&|s| s.get)),
        Metric::median("store.raw_put_mb_s", t.raw_put_mb_s.clone()),
        Metric::median("store.decode_s", t.decode_s.clone()),
        Metric::single("store.chain_bytes", last.chain_bytes as f64),
        // On `serve_loop`: what the daemon's own compaction trigger left.
        Metric::single(
            "store.segments",
            t.daemon.last().map_or(last.segments, |d| d.segments) as f64,
        ),
        Metric::single("store.bytes_per_rec", last.chain_bytes as f64 / records),
        Metric::single("store.compact_bytes_out", last.compact_bytes_out as f64),
        Metric::median("store.restore_mb_s", per(&|l| l.chain_bytes as f64 / 1e6 / l.restore_s)),
        Metric::median("store.compact_mb_s", per(&|l| l.chain_bytes as f64 / 1e6 / l.compact_s)),
        Metric::single(
            "serve.overhead_pct",
            if t.daemon.is_empty() { 0.0 } else { median(&t.serve_overhead_pct) },
        ),
        Metric::single("serve.requests", daemon_sum(&|d| d.requests as f64)),
        Metric::single("serve.rejected", daemon_sum(&|d| d.rejected as f64)),
        Metric::single("serve.bytes_in", daemon_sum(&|d| d.bytes_in as f64)),
        Metric::single("serve.finish_commit_pct", finish_commit_pct),
        // An overhead inside its own noise is reported as unresolved: 0
        // here, with `obs.overhead_resolved` 0 and the spread beside it.
        Metric {
            name: "obs.overhead_pct",
            value: if resolved { overhead.median } else { 0.0 },
            samples: t.obs_overhead_pct.clone(),
            note: match resolved {
                true => String::new(),
                false => format!(
                    "unresolved: median {:.2} is inside its own IQR {overhead_iqr:.2}",
                    overhead.median
                ),
            },
        },
        Metric::single("obs.overhead_iqr_pct", overhead_iqr),
        Metric::single("obs.overhead_resolved", f64::from(u8::from(resolved))),
        Metric::single("trace.coverage_pct", coverage_pct),
        Metric::pooled("push_p50_ms", push_ms.clone(), 50.0),
        Metric::pooled("push_p90_ms", push_ms, 90.0),
        Metric::pooled("day_close_p90_ms", day_close_ms, 90.0),
        Metric::pooled("query_p50_ms", query_ms.clone(), 50.0),
        Metric::pooled("query_p90_ms", query_ms, 90.0),
    ]
}
