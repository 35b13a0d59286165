//! The earlybird benchmark: lines in → alerts durable, measured end to
//! end and layer by layer on four named workloads.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints its metric table followed, as the last line
//!   of standard output, by one JSON object
//!   `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//!   metrics of `BENCHMARK.json` untraced, the per-layer metrics traced.
//! * Without `--workload`, every workload runs untraced and traced, each
//!   in a child process of its own (so `peak_rss_mb` is per workload), and
//!   a summary table closes the output. `--repeat-check` instead holds
//!   every end-to-end metric against its bound the way the driver does:
//!   two passes of ten untraced runs per workload, each run on another
//!   seed; it fails if a metric's quartile spread exceeds its bound or a
//!   second-pass median is worse than the first by more than it.
//!
//! See `benchmark/README.md` for the workloads, the metric glossary and
//! the facade functions this program pins.

mod checks;
mod layers;
mod library;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;
mod worlds;

use run::{Metric, RunOpts, RunOutput};
use spec::{MetricSpec, Spec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: earlybird-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--repeat-check]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat_check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: None,
        traced: false,
        quick: false,
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds {secs} is outside (0, 600]"));
                }
                cli.seconds = Some(secs);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(name) = &cli.workload {
        if !worlds::WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?}; one of {:?}", worlds::WORKLOADS));
        }
    }
    Ok(cli)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment a reading was taken in, printed with every run.
fn environment() -> String {
    let out = run::out_dir();
    let _ = std::fs::create_dir_all(&out);
    let workers = earlybird::engine::EngineBuilder::lanl()
        .build(Default::default(), Default::default())
        .map_or(0, |e| e.config().parallelism);
    format!(
        "environment: nproc {} | {} | commit {} | engine workers {} | scratch {} on {} | \
         durability: LocalFsBackend stages each object in a temp file, fsyncs it, renames it \
         into place and fsyncs the directory",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        workers,
        out.display(),
        command_line("stat", &["-f", "-c", "%T", &out.display().to_string()]),
    )
}

fn print_table(spec: &[MetricSpec], metrics: &[Metric]) {
    println!(
        "{:<26} {:>14} {:<6} {:<7} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "metric", "value", "unit", "better", "n", "median", "q1", "q3", "min", "max"
    );
    for m in metrics {
        let Some(s) = spec.iter().find(|s| s.name == m.name) else { continue };
        let sum = stats::summarize(&m.samples);
        let mut line = format!(
            "{:<26} {:>14.4} {:<6} {:<7} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            m.name, m.value, s.unit, s.better, sum.n, sum.median, sum.q1, sum.q3, sum.min, sum.max
        );
        if s.unit == "ms" && m.samples.len() > 1 {
            let (p, v) = stats::tail(&m.samples);
            let _ = write!(line, "  p{p} {v:.4}");
        }
        if !m.note.is_empty() {
            let _ = write!(line, "  {}", m.note);
        }
        println!("{line}");
    }
}

fn print_layers(tracer: &trace::Tracer) {
    println!("\nlayer table (all traced trials; [t] = read from the program's own registry)");
    println!("{:<34} {:>7} {:>11} {:>11} {:>7}", "span", "calls", "total_s", "self_s", "self%");
    for row in tracer.layer_table() {
        let name = format!(
            "{}{}{}",
            "  ".repeat(row.depth),
            row.name,
            if row.from_registry { " [t]" } else { "" }
        );
        let share = if row.total_s > 0.0 { row.self_s / row.total_s * 100.0 } else { 0.0 };
        println!(
            "{name:<34} {:>7} {:>11.4} {:>11.4} {share:>6.1}%",
            row.calls, row.total_s, row.self_s
        );
    }
}

/// The run's last line. Values keep every digit `f64` formatting gives.
fn result_line(spec: &[MetricSpec], out: &RunOutput) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.correct(),
        out.checks.attempted.max(1),
        out.checks.failed
    );
    for (i, s) in spec.iter().enumerate() {
        let value = out.metrics.iter().find(|m| m.name == s.name).map_or(f64::NAN, |m| m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", s.name, s.unit);
    }
    line.push_str("}}");
    line
}

/// Runs one workload in this process and prints its report.
fn run_one(spec: &Spec, cli: &Cli, workload: &str) -> ExitCode {
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: cli.seed,
        // `--quick` stops at its two trials.
        seconds: cli.seconds.unwrap_or(if cli.quick { 0.1 } else { spec.run_seconds as f64 }),
        traced: cli.traced,
        quick: cli.quick,
    };
    println!("{}", environment());
    let mut out = run::run(&opts);
    let reported = spec.reported(cli.traced);

    // Every metric BENCHMARK.json names is present and finite, and
    // nothing it does not name is reported.
    for s in reported {
        let value = out.metrics.iter().find(|m| m.name == s.name).map(|m| m.value);
        out.checks.expect(value.is_some_and(f64::is_finite), || {
            format!("metric {} is missing or not finite: {value:?}", s.name)
        });
    }
    for m in &out.metrics {
        out.checks.expect(reported.iter().any(|s| s.name == m.name), || {
            format!("metric {} is not named in BENCHMARK.json", m.name)
        });
    }

    println!(
        "{} | seed {} | {} | {} measured trials in a {:.0} s budget{}",
        out.world,
        opts.seed,
        if opts.traced { "traced" } else { "untraced" },
        out.trials,
        opts.seconds,
        if opts.quick { " | QUICK: not a measurement" } else { "" }
    );
    print_table(reported, &out.metrics);
    if let Some(tracer) = &out.tracer {
        print_layers(tracer);
        let path = run::out_dir().join("trace.json");
        let doc = format!("{{\"workload\":\"{workload}\",\"trace\":{}}}", tracer.to_json());
        out.checks.expect(std::fs::write(&path, doc).is_ok(), || {
            format!("cannot write {}", path.display())
        });
    }
    println!(
        "operations: {} attempted, {} failed ({} parse errors)",
        out.checks.attempted, out.checks.failed, out.checks.parse_errors
    );
    for message in &out.checks.messages {
        println!("FAILED: {message}");
    }
    println!("{}", result_line(reported, &out));
    if out.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `metric name → value` of one child run's last line.
type Reading = BTreeMap<String, f64>;

/// Runs one workload in a child process, relays its report when `relay`
/// is set, and parses its last line.
fn run_child(
    cli: &Cli,
    workload: &str,
    seed: u64,
    traced: bool,
    relay: bool,
) -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(secs) = cli.seconds {
        cmd.args(["--seconds", &secs.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if relay || !output.status.success() {
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} (trace {}) exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    let doc: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad last line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{workload}: last line has no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// One full set: every workload untraced, then traced. Returns the
/// end-to-end readings per workload.
fn run_set(cli: &Cli) -> Result<BTreeMap<&'static str, Reading>, String> {
    let mut set = BTreeMap::new();
    let mut traces = Vec::new();
    for workload in worlds::WORKLOADS {
        println!("\n=== {workload} · end to end (untraced) ===");
        set.insert(workload, run_child(cli, workload, cli.seed, false, true)?);
        println!("\n=== {workload} · per layer (traced) ===");
        run_child(cli, workload, cli.seed, true, true)?;
        traces.extend(std::fs::read_to_string(run::out_dir().join("trace.json")).ok());
    }
    let merged = format!("{{\"runs\":[\n{}\n]}}\n", traces.join(",\n"));
    std::fs::write(run::out_dir().join("trace.json"), merged)
        .map_err(|e| format!("cannot write the merged trace: {e}"))?;
    Ok(set)
}

fn print_summary(spec: &Spec, set: &BTreeMap<&'static str, Reading>) {
    print!("\n{:<20} {:<6} {:<7} {:>6}", "end-to-end metric", "unit", "better", "bound");
    for workload in worlds::WORKLOADS {
        print!(" {workload:>14}");
    }
    println!();
    for m in &spec.end_to_end {
        print!(
            "{:<20} {:<6} {:<7} {:>5.0}%",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0) * 100.0
        );
        for workload in worlds::WORKLOADS {
            print!(" {:>14.4}", set[workload].get(&m.name).copied().unwrap_or(f64::NAN));
        }
        println!();
    }
}

/// Runs per workload in one pass of `--repeat-check`, as in the driver's.
const PASS_RUNS: u64 = 10;

/// What one pass of the repeat check found.
struct Pass {
    /// Median of the runs' values by `(workload, metric)`.
    medians: BTreeMap<(&'static str, String), f64>,
    /// Spreads beyond their bound (`setup_s` is exempt, as in the driver).
    beyond: usize,
}

/// One pass of the repeat check: [`PASS_RUNS`] untraced runs per workload
/// on seeds `seed`, `seed + 1`, …. Prints, per end-to-end metric, the
/// median of the runs' values and the distance between their quartiles as
/// a share of it.
fn repeat_pass(spec: &Spec, cli: &Cli, pass: usize) -> Result<Pass, String> {
    let mut medians = BTreeMap::new();
    let mut beyond = 0;
    for workload in worlds::WORKLOADS {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in cli.seed..cli.seed + PASS_RUNS {
            let reading = run_child(cli, workload, seed, false, false)?;
            for m in &spec.end_to_end {
                values.entry(&m.name).or_default().push(reading[&m.name]);
            }
        }
        println!("\npass {pass} · {workload} · seeds {}..{}", cli.seed, cli.seed + PASS_RUNS - 1);
        println!(
            "{:<20} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in &spec.end_to_end {
            let runs = &values[m.name.as_str()];
            let median = stats::median(runs);
            let (q1, q3) = stats::driver_quartiles(runs);
            let (spread, bound) = ((q3 - q1) / median.abs(), m.bound.unwrap_or(0.0));
            let verdict = if m.name == "setup_s" || spread <= bound / 3.0 {
                ""
            } else if spread <= bound {
                "  > bound/3"
            } else {
                "  > BOUND"
            };
            beyond += usize::from(verdict == "  > BOUND");
            println!(
                "{:<20} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>5.0}%{verdict}",
                m.name,
                spread * 100.0,
                bound * 100.0
            );
            medians.insert((workload, m.name.clone()), median);
        }
    }
    Ok(Pass { medians, beyond })
}

/// The driver's acceptance test of this benchmark, run here: two passes;
/// every spread within its bound, and no second-pass median worse than
/// the first by more than its bound.
fn repeat_check(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    let first = repeat_pass(spec, cli, 1)?;
    let second = repeat_pass(spec, cli, 2)?;
    println!("\nsecond pass against the first, same commit, same seeds");
    let mut worse = 0;
    for ((workload, name), a) in &first.medians {
        let m = spec.end_to_end.iter().find(|m| &m.name == name).expect("a named metric");
        let b = second.medians[&(*workload, name.clone())];
        let change = if m.better == "lower" { (b - a) / a } else { (a - b) / a };
        let bound = m.bound.unwrap_or(0.0);
        let verdict = if change > bound { "WORSE" } else { "ok" };
        println!(
            "{workload:<14} {name:<20} {a:>14.4} -> {b:>14.4}  {:>+7.2}% of {:>3.0}%  {verdict}",
            change * 100.0,
            bound * 100.0
        );
        worse += usize::from(change > bound);
    }
    let beyond = first.beyond + second.beyond;
    println!("{beyond} spread(s) beyond their bound, {worse} median(s) worse by more than theirs");
    if cli.quick {
        println!("--quick: bounds not enforced");
        return Ok(true);
    }
    Ok(beyond == 0 && worse == 0)
}

fn run_all(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    if cli.repeat_check {
        return repeat_check(spec, cli);
    }
    print_summary(spec, &run_set(cli)?);
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cli, spec) = match parse_cli(&args).and_then(|cli| Ok((cli, Spec::load()?))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if spec.workloads != worlds::WORKLOADS {
        eprintln!(
            "BENCHMARK.json names workloads {:?}, this program runs {:?}",
            spec.workloads,
            worlds::WORKLOADS
        );
        return ExitCode::from(2);
    }
    match &cli.workload {
        Some(workload) => run_one(&spec, &cli, workload),
        None => match run_all(&spec, &cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` proves the harness end to end: every workload runs at a
    /// tenth of the scale, passes every output check, and emits exactly
    /// the metric set `BENCHMARK.json` names, untraced and traced.
    #[test]
    fn quick_mode_runs_checks_outputs_and_emits_every_metric() {
        let spec = Spec::load().expect("BENCHMARK.json at the repository root");
        assert_eq!(spec.workloads, worlds::WORKLOADS, "workload names match BENCHMARK.json");
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for workload in worlds::WORKLOADS {
            for traced in [false, true] {
                let opts = RunOpts {
                    workload: workload.to_owned(),
                    seed: 7,
                    seconds: 0.1,
                    traced,
                    quick: true,
                };
                let out = run::run(&opts);
                assert!(out.checks.correct(), "{workload}: {:?}", out.checks.messages);
                assert!(out.checks.attempted > 0);
                let reported = spec.reported(traced);
                let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                let mut wanted: Vec<&str> = reported.iter().map(|m| m.name.as_str()).collect();
                names.sort_unstable();
                wanted.sort_unstable();
                assert_eq!(names, wanted, "{workload} trace={traced}");
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                }
                let line = result_line(reported, &out);
                let doc: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
                assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
            }
        }
    }

    #[test]
    fn cli_rejects_what_it_does_not_know() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        let cli = parse_cli(&args("--workload dns_churn --seed 11 --seconds 3 --trace 1")).unwrap();
        assert_eq!((cli.workload.as_deref(), cli.seed, cli.traced), (Some("dns_churn"), 11, true));
    }
}
