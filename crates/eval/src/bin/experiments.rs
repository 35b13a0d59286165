//! Regenerates every table and figure of the DSN'15 paper on the synthetic
//! datasets and prints them next to the paper's reference values.
//!
//! Usage:
//!   experiments               # run everything at full scale
//!   experiments --small       # run at test scale (fast)
//!   experiments --json DIR    # additionally write JSON artifacts to DIR
//!   experiments --fig2        # run a single experiment (any of:
//!                             #   table1 table2 table3 fig2 fig3 fig4 fig5
//!                             #   fig6a fig6b fig6c fig7 fig8 regression
//!                             #   evasion)
//!
//! An unknown experiment name or option prints the usage text on stderr
//! and exits with status 2.

use earlybird_eval::evasion::{evasion_study, JITTER_LEVELS};
use earlybird_eval::lanl::{table2_grid, LanlRun};
use earlybird_eval::report::{cdf_points, render_table};
use earlybird_eval::{AcHarness, Fig6Row, Rates};
use earlybird_synthgen::ac::{AcConfig, AcGenerator};
use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator, CHALLENGE_SCHEDULE};
use std::path::PathBuf;

/// Every experiment this binary runs.
const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "regression",
    "evasion",
];

fn usage() -> String {
    format!(
        "usage: experiments [--small] [--json DIR] [[--]EXPERIMENT ...]\n\
         experiments (none named: run them all): {}",
        EXPERIMENTS.join(" ")
    )
}

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Test-scale worlds instead of full-scale ones.
    small: bool,
    /// Where to write JSON artifacts, if anywhere.
    json_dir: Option<PathBuf>,
    /// The experiments named; empty means all.
    wanted: Vec<&'static str>,
}

/// The generated worlds a selection of experiments reads, as `(lanl, ac)`;
/// an empty selection runs everything. `table1` prints the static
/// challenge schedule and `evasion` synthesizes its own beacons, so
/// neither needs a world.
fn worlds_needed(wanted: &[&str]) -> (bool, bool) {
    let any = |group: &[&str]| wanted.is_empty() || group.iter().any(|e| wanted.contains(e));
    (
        any(&["table2", "table3", "fig2", "fig3", "fig4"]),
        any(&["fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "regression"]),
    )
}

/// Parses the arguments after the program name. An experiment may be
/// named with or without a leading `--`; anything that is neither a known
/// option nor a known experiment is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => out.small = true,
            "--json" => {
                let dir = args.next().ok_or("--json needs a directory")?;
                out.json_dir = Some(PathBuf::from(dir));
            }
            other => {
                let name = other.trim_start_matches("--");
                let &known = EXPERIMENTS
                    .iter()
                    .find(|&&e| e == name)
                    .ok_or_else(|| format!("unknown experiment or option {other:?}"))?;
                out.wanted.push(known);
            }
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { small, json_dir, wanted } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{}", usage());
        std::process::exit(2);
    });
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create JSON output dir");
    }
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);
    let dump = |name: &str, value: &dyn erased::Dump| {
        if let Some(dir) = &json_dir {
            value.dump(&dir.join(format!("{name}.json")));
        }
    };

    let (lanl_needed, ac_needed) = worlds_needed(&wanted);
    if want("evasion") {
        let rows = evasion();
        dump("evasion", &rows);
    }

    if want("table1") {
        table1();
    }

    if lanl_needed {
        eprintln!("[experiments] generating LANL dataset...");
        let config = if small { LanlConfig::small() } else { LanlConfig::new(7) };
        let challenge = LanlGenerator::new(config).generate();
        eprintln!(
            "[experiments] {} DNS queries / {} days",
            challenge.dataset.total_queries(),
            challenge.dataset.days.len()
        );
        let run = LanlRun::new(&challenge);
        if want("fig2") {
            fig2(&run);
            dump("fig2", &run.figure2(4, 10));
        }
        if want("table2") {
            table2(&run);
            dump("table2", &run.table2(&table2_grid()));
        }
        if want("fig3") {
            fig3(&run);
            dump("fig3", &run.figure3());
        }
        if want("table3") {
            table3(&run);
            dump("table3", &run.table3().0);
        }
        if want("fig4") {
            fig4(&run);
        }
    }

    if ac_needed {
        eprintln!("[experiments] generating AC dataset...");
        let config = if small { AcConfig::small() } else { AcConfig::new(11) };
        let world = AcGenerator::new(config).generate();
        eprintln!(
            "[experiments] {} proxy records / {} days",
            world.dataset.total_records(),
            world.dataset.days.len()
        );
        let harness = AcHarness::build(&world).expect("training population suffices");
        if want("regression") {
            regression(&harness);
        }
        if want("fig5") {
            fig5(&harness);
        }
        if want("fig6a") {
            let rows = harness.figure6a(&[0.40, 0.42, 0.44, 0.45, 0.46, 0.48]);
            fig6(
                "Figure 6(a) — C&C detections vs threshold",
                "paper: 114 -> 19 domains, TDR 85.08% -> 94.7%",
                &rows,
            );
            dump("fig6a", &rows);
        }
        if want("fig6b") {
            let rows = harness.figure6b(0.4, &[0.33, 0.50, 0.65, 0.75, 0.85]);
            fig6(
                "Figure 6(b) — no-hint belief propagation vs T_s",
                "paper: 265 -> 114 domains, TDR 76.2% -> 85.1%, NDR 26.4% at 0.33",
                &rows,
            );
            dump("fig6b", &rows);
        }
        if want("fig6c") {
            let rows = harness.figure6c(&[0.33, 0.37, 0.40, 0.41, 0.45]);
            fig6(
                "Figure 6(c) — SOC-hints belief propagation vs T_s",
                "paper: 137 -> 73 domains, TDR 78.8% -> 94.6%; 29 new findings incl. hex DGA",
                &rows,
            );
            dump("fig6c", &rows);
        }
        if want("fig7") {
            case_study(&harness, false);
        }
        if want("fig8") {
            case_study(&harness, true);
        }
    }
}

/// Type-erased JSON dumping so `dump` can take heterogeneous artifacts.
mod erased {
    use std::path::Path;

    pub trait Dump {
        fn dump(&self, path: &Path);
    }

    impl<T: serde::Serialize> Dump for T {
        fn dump(&self, path: &Path) {
            earlybird_eval::export::write_json(path, self).expect("write JSON artifact");
            eprintln!("[experiments] wrote {}", path.display());
        }
    }
}

fn evasion() -> Vec<earlybird_eval::EvasionRow> {
    println!("\n== Evasion study (§VIII) — beacon jitter vs detection rate ==");
    println!("paper claims: resilient to small randomization; wider (W, J_T) buys resilience;");
    println!("fully randomized timing evades every timing-based detector");
    let rows = evasion_study(7, 100);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let jitter = if r.jitter_secs == u64::MAX {
                "random".to_string()
            } else {
                format!("{}s", r.jitter_secs)
            };
            vec![
                jitter,
                format!("{:.0}%", r.paper_detector * 100.0),
                format!("{:.0}%", r.wide_detector * 100.0),
                format!("{:.0}%", r.stddev_baseline * 100.0),
                format!("{:.0}%", r.autocorr_baseline * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "jitter",
                "paper (W=10, JT=.06)",
                "wide (W=30, JT=.35)",
                "stddev baseline",
                "autocorr baseline"
            ],
            &table
        )
    );
    assert_eq!(rows.len(), JITTER_LEVELS.len());
    rows
}

fn table1() {
    println!("\n== Table I — the four LANL challenge cases ==");
    let mut rows = Vec::new();
    for case in 1..=4u32 {
        let days: Vec<String> = CHALLENGE_SCHEDULE
            .iter()
            .filter(|(_, c)| c.number() == case)
            .map(|(d, _)| format!("3/{d}"))
            .collect();
        let hint = match case {
            1 => "one per day",
            2 => "three or four per day",
            3 => "one per day (+ other hosts to find)",
            _ => "no hints",
        };
        rows.push(vec![format!("Case {case}"), days.join(" "), hint.to_string()]);
    }
    println!("{}", render_table(&["case", "March days", "hint hosts"], &rows));
}

fn fig2(run: &LanlRun<'_>) {
    println!("\n== Figure 2 — domains per day after each reduction step (first week of March) ==");
    println!("paper shape: All > filter-internal > filter-servers > new > rare (log scale)");
    let rows: Vec<Vec<String>> = run
        .figure2(4, 10)
        .iter()
        .map(|r| {
            vec![
                format!("03-{:02}", r.march_day),
                r.all.to_string(),
                r.filter_internal.to_string(),
                r.filter_servers.to_string(),
                r.new_destinations.to_string(),
                r.rare_destinations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["day", "All", "filter internal", "filter servers", "New", "Rare"], &rows)
    );
}

fn table2(run: &LanlRun<'_>) {
    println!("\n== Table II — automated (host, domain) pairs vs (W, J_T) ==");
    println!(
        "paper: W=10s/J_T=0.06 captures all 33 malicious pairs; larger J_T admits more legit pairs"
    );
    let rows: Vec<Vec<String>> = run
        .table2(&table2_grid())
        .iter()
        .map(|r| {
            vec![
                format!("{}s", r.bin_width),
                format!("{:.3}", r.jt),
                r.malicious_pairs_training.to_string(),
                r.malicious_pairs_testing.to_string(),
                r.all_pairs_testing.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "W",
                "J_T",
                "malicious pairs (train)",
                "malicious pairs (test)",
                "all pairs (test days)"
            ],
            &rows
        )
    );
}

fn fig3(run: &LanlRun<'_>) {
    println!("\n== Figure 3 — CDFs of first-visit gaps (training campaigns) ==");
    println!("paper: 56% of malicious-malicious gaps < 160 s vs 3.8% of malicious-legitimate");
    let data = run.figure3();
    let mm160 = earlybird_eval::lanl::Fig3Data::fraction_below(&data.malicious_malicious, 160.0);
    let ml160 = earlybird_eval::lanl::Fig3Data::fraction_below(&data.malicious_legitimate, 160.0);
    println!(
        "measured: {:.1}% of {} malicious-malicious gaps < 160 s; {:.1}% of {} malicious-legitimate",
        mm160 * 100.0,
        data.malicious_malicious.len(),
        ml160 * 100.0,
        data.malicious_legitimate.len()
    );
    let rows: Vec<Vec<String>> = cdf_points(&data.malicious_malicious, 8)
        .into_iter()
        .zip(cdf_points(&data.malicious_legitimate, 8))
        .map(|((mv, mf), (lv, lf))| {
            vec![format!("{mv:.0}s -> {mf:.2}"), format!("{lv:.0}s -> {lf:.2}")]
        })
        .collect();
    println!("{}", render_table(&["malicious-malicious CDF", "malicious-legitimate CDF"], &rows));
}

fn table3(run: &LanlRun<'_>) {
    println!("\n== Table III — LANL challenge results ==");
    println!("paper: total 59 TP / 1 FP / 4 FN; TDR 98.33%, FDR 1.67%, FNR 6.35%");
    let (table, _) = run.table3();
    let mut rows = Vec::new();
    for (case, train, test) in &table.rows {
        rows.push(vec![
            format!("Case {case}"),
            train.true_positives.to_string(),
            test.true_positives.to_string(),
            train.false_positives.to_string(),
            test.false_positives.to_string(),
            train.false_negatives.to_string(),
            test.false_negatives.to_string(),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        table.training_total.true_positives.to_string(),
        table.testing_total.true_positives.to_string(),
        table.training_total.false_positives.to_string(),
        table.testing_total.false_positives.to_string(),
        table.training_total.false_negatives.to_string(),
        table.testing_total.false_negatives.to_string(),
    ]);
    println!(
        "{}",
        render_table(
            &["", "TP train", "TP test", "FP train", "FP test", "FN train", "FN test"],
            &rows
        )
    );
    let r = table.overall_rates();
    println!(
        "measured: TDR {} FDR {} FNR {}",
        Rates::pct(r.tdr),
        Rates::pct(r.fdr),
        Rates::pct(r.fnr)
    );
}

fn fig4(run: &LanlRun<'_>) {
    println!("\n== Figure 4 — belief propagation trace on the 3/19 campaign ==");
    println!("paper: hint host -> C&C at 10-min beacon -> 3 similarity-labeled domains -> stop");
    let Some(result) = run.figure4(19) else {
        println!("(no case-3 campaign on 3/19 in this seed)");
        return;
    };
    for trace in &result.outcome.iterations {
        if trace.labeled.is_empty() {
            println!(
                "iteration {}: no domain above threshold (best similarity {:?}) -> stop",
                trace.iteration, trace.best_similarity
            );
        }
        for d in &trace.labeled {
            println!(
                "iteration {}: +domain (score {:.2}, via {:?}); hosts discovered: {}",
                trace.iteration,
                d.score,
                d.reason,
                trace.new_hosts.len()
            );
        }
    }
    println!(
        "result: {} TP, {} FP, {} FN; community of {} hosts",
        result.true_positives,
        result.false_positives,
        result.false_negatives,
        result.outcome.compromised_hosts.len()
    );
}

fn regression(harness: &AcHarness<'_>) {
    println!("\n== Regression models (§VI-A) ==");
    println!("paper: DomAge negatively correlated; RareUA & DomAge most relevant; AutoHosts and IP16 insignificant");
    let training = harness.training();
    println!("C&C model (R² = {:.3}, n = {}):", training.cc_r_squared, training.cc_samples);
    for (name, w, t, sig) in &training.cc_summary {
        println!("  {name:<12} weight {w:+.3}  t {t:+.2}  significant: {sig}");
    }
    println!(
        "similarity model (R² = {:.3}, n = {}):",
        training.sim_r_squared, training.sim_samples
    );
    for (name, w, t, sig) in &training.sim_summary {
        println!("  {name:<12} weight {w:+.3}  t {t:+.2}  significant: {sig}");
    }
}

fn fig5(harness: &AcHarness<'_>) {
    println!("\n== Figure 5 — score CDFs of reported vs legitimate automated domains ==");
    println!("paper: reported domains score higher; threshold 0.4 -> 57.18% TDR / 10.59% FPR on training");
    let fig = harness.figure5();
    let frac_above = |v: &[f64], t: f64| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().filter(|&&x| x >= t).count() as f64 / v.len() as f64
        }
    };
    println!(
        "measured at 0.4: {:.1}% of {} reported above; {:.1}% of {} legitimate above",
        frac_above(&fig.reported, 0.4) * 100.0,
        fig.reported.len(),
        frac_above(&fig.legitimate, 0.4) * 100.0,
        fig.legitimate.len()
    );
    let rows: Vec<Vec<String>> = cdf_points(&fig.reported, 8)
        .into_iter()
        .zip(cdf_points(&fig.legitimate, 8))
        .map(|((rv, rf), (lv, lf))| {
            vec![format!("{rv:+.2} -> {rf:.2}"), format!("{lv:+.2} -> {lf:.2}")]
        })
        .collect();
    println!("{}", render_table(&["reported CDF", "legitimate CDF"], &rows));
}

fn fig6(title: &str, reference: &str, rows: &[Fig6Row]) {
    println!("\n== {title} ==");
    println!("{reference}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.threshold),
                r.total().to_string(),
                r.known.to_string(),
                r.new_malicious.to_string(),
                r.suspicious.to_string(),
                r.legitimate.to_string(),
                format!("{:.1}%", r.tdr() * 100.0),
                format!("{:.1}%", r.ndr() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["thresh", "total", "VT+SOC", "new-mal", "susp", "legit", "TDR", "NDR"],
            &table
        )
    );
}

fn case_study(harness: &AcHarness<'_>, hints: bool) {
    let (study, title, reference) = if hints {
        (
            harness.case_study_hints(10, 0.4),
            "Figure 8 — SOC-hints community (Feb 10)",
            "paper: IOC seed -> .org malware cluster + new hex-DGA discoveries across 7 hosts",
        )
    } else {
        (
            harness.case_study_nohint(13, 0.4, 0.33),
            "Figure 7 — no-hint community (Feb 13)",
            "paper: beaconing C&C + two delivery-stage domains across 5 hosts",
        )
    };
    println!("\n== {title} ==");
    println!("{reference}");
    let Some(study) = study else {
        println!("(day not present)");
        return;
    };
    println!("community: {} domains across {} hosts", study.domains.len(), study.host_count);
    for (name, reason, score, category) in &study.domains {
        println!("  {score:+.2}  {name:<40} {category}  via {reason:?}");
    }
    println!("\nDOT graph:\n{}", study.dot);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_run_everything_at_full_scale() {
        assert_eq!(parse(&[]), Ok(Args::default()));
    }

    #[test]
    fn options_and_names_parse_in_any_order() {
        let args = parse(&["--fig2", "--small", "table3", "--json", "out"]).unwrap();
        assert!(args.small);
        assert_eq!(args.json_dir, Some(PathBuf::from("out")));
        assert_eq!(args.wanted, ["fig2", "table3"]);
    }

    #[test]
    fn every_listed_experiment_is_accepted() {
        for name in EXPERIMENTS {
            assert_eq!(parse(&[name]).unwrap().wanted, [name]);
            assert_eq!(parse(&[&format!("--{name}")]).unwrap().wanted, [name]);
        }
    }

    #[test]
    fn unknown_names_and_options_are_rejected() {
        for bad in [&["--fgi2"][..], &["table9"], &["--small", "fig2", "--verbose"], &[""]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown experiment"), "{bad:?}: {err}");
        }
        assert_eq!(parse(&["--json"]), Err("--json needs a directory".into()));
    }

    #[test]
    fn only_experiments_that_read_a_world_generate_it() {
        assert_eq!(worlds_needed(&[]), (true, true));
        assert_eq!(worlds_needed(&["table1"]), (false, false));
        assert_eq!(worlds_needed(&["evasion"]), (false, false));
        assert_eq!(worlds_needed(&["table1", "table3"]), (true, false));
        assert_eq!(worlds_needed(&["fig6b", "evasion"]), (false, true));
        for name in EXPERIMENTS {
            let needs_one = !matches!(name, "table1" | "evasion");
            let (lanl, ac) = worlds_needed(&[name]);
            assert_eq!(lanl || ac, needs_one, "{name}");
            assert!(!(lanl && ac), "{name} reads one world");
        }
    }
}
