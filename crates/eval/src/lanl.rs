//! The LANL challenge harness (§V): drives the unified [`Engine`] facade
//! over the two-month synthetic DNS dataset, solves all four challenge
//! cases, and regenerates Table II, Table III, Fig. 2, Fig. 3 and Fig. 4.

use crate::metrics::{DetectionTally, Rates};
use earlybird_core::BpOutcome;
use earlybird_engine::{DayBatch, Engine, EngineBuilder, Investigation};
use earlybird_logmodel::{Day, Timestamp};
use earlybird_synthgen::lanl::{ChallengeCase, LanlCampaign, LanlChallenge};
use earlybird_timing::AutomationDetector;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// One row of the Fig. 2 reproduction: distinct domains surviving each
/// reduction step on one day.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// March day-of-month.
    pub march_day: u32,
    /// Distinct folded domains before filtering ("All").
    pub all: usize,
    /// After dropping internal queries.
    pub filter_internal: usize,
    /// After additionally dropping internal-server sources.
    pub filter_servers: usize,
    /// New destinations (not in the history).
    pub new_destinations: usize,
    /// Rare destinations (new + unpopular).
    pub rare_destinations: usize,
}

/// One row of the Table II reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Histogram bin width `W` in seconds.
    pub bin_width: u64,
    /// Jeffrey divergence threshold `J_T`.
    pub jt: f64,
    /// Labeled-malicious (host, domain) pairs detected automated, training
    /// campaigns.
    pub malicious_pairs_training: usize,
    /// Same, testing campaigns.
    pub malicious_pairs_testing: usize,
    /// All automated pairs over the testing days.
    pub all_pairs_testing: usize,
}

/// The Fig. 3 data: sorted first-visit gaps for the two populations.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig3Data {
    /// Gaps (seconds) between first visits to two malicious domains by the
    /// same compromised host.
    pub malicious_malicious: Vec<f64>,
    /// Gaps between a malicious and a rare legitimate domain.
    pub malicious_legitimate: Vec<f64>,
}

impl Fig3Data {
    /// Fraction of gaps at or below `threshold` seconds in a population.
    pub fn fraction_below(pop: &[f64], threshold: f64) -> f64 {
        if pop.is_empty() {
            return 0.0;
        }
        pop.iter().filter(|&&x| x <= threshold).count() as f64 / pop.len() as f64
    }
}

/// Per-campaign detection outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The campaign's March day.
    pub march_day: u32,
    /// Hint case.
    pub case: ChallengeCase,
    /// Whether the campaign is in the paper's training split.
    pub training: bool,
    /// Correctly detected malicious domains.
    pub true_positives: usize,
    /// Detected domains outside the answer key.
    pub false_positives: usize,
    /// Answer-key domains missed.
    pub false_negatives: usize,
    /// Detected domain names.
    pub detected: Vec<String>,
    /// The raw belief-propagation outcome (iteration traces included).
    pub outcome: BpOutcome,
}

/// Table III: per-case tallies split into training/testing.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Table3 {
    /// `(case number, training tally, testing tally)` rows.
    pub rows: Vec<(u32, DetectionTally, DetectionTally)>,
    /// Overall training tally.
    pub training_total: DetectionTally,
    /// Overall testing tally.
    pub testing_total: DetectionTally,
}

impl Table3 {
    /// Overall tally across both splits.
    pub fn total(&self) -> DetectionTally {
        let mut t = self.training_total;
        t.add(self.testing_total);
        t
    }

    /// Overall rates (the paper's headline TDR/FDR/FNR).
    pub fn overall_rates(&self) -> Rates {
        self.total().rates()
    }
}

/// A completed engine run over the challenge dataset: February bootstraps
/// the profiles, every March day is retained for investigation.
pub struct LanlRun<'a> {
    challenge: &'a LanlChallenge,
    engine: Engine,
}

impl<'a> LanlRun<'a> {
    /// Streams the whole challenge through one [`Engine`].
    pub fn new(challenge: &'a LanlChallenge) -> Self {
        let mut engine = EngineBuilder::lanl()
            .build(
                std::sync::Arc::clone(&challenge.dataset.domains),
                challenge.dataset.meta.clone(),
            )
            .expect("LANL engine config is valid");
        for day_log in &challenge.dataset.days {
            engine.ingest_day(DayBatch::Dns(day_log));
        }
        LanlRun { challenge, engine }
    }

    /// The engine holding the processed days.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The underlying challenge.
    pub fn challenge(&self) -> &LanlChallenge {
        self.challenge
    }

    /// Fig. 2: reduction series for March days `from..=to`.
    pub fn figure2(&self, from: u32, to: u32) -> Vec<Fig2Row> {
        let mut rows = Vec::new();
        for m in from..=to {
            let day = self.challenge.config.march_day(m);
            let Some(report) = self.engine.report(day) else { continue };
            rows.push(Fig2Row {
                march_day: m,
                all: report.stages.domains_all,
                filter_internal: report.stages.domains_after_internal_filter,
                filter_servers: report.stages.domains_after_server_filter,
                new_destinations: report.stages.new_destinations,
                rare_destinations: report.stages.rare_destinations,
            });
        }
        rows
    }

    /// Table II: the `(W, J_T)` sweep. `configs` lists the pairs to
    /// evaluate (the paper's grid is
    /// `{5} x {0, .034, .06, .35}` ∪ `{10, 20} x {0, .034, .06}`).
    pub fn table2(&self, configs: &[(u64, f64)]) -> Vec<Table2Row> {
        // Ground-truth beacon pairs: (victim, C&C domain) per campaign.
        let mut truth_train: HashSet<(u32, String)> = HashSet::new();
        let mut truth_test: HashSet<(u32, String)> = HashSet::new();
        for c in &self.challenge.campaigns {
            let set = if c.is_training() { &mut truth_train } else { &mut truth_test };
            for &v in &c.plan.victims {
                set.insert((v.index(), c.plan.cc_domain().to_owned()));
            }
        }
        let testing_days: BTreeSet<Day> = self.challenge.testing().map(|c| c.day).collect();

        configs
            .iter()
            .map(|&(w, jt)| {
                let automation = AutomationDetector::new(w, jt, 4);
                let mut row = Table2Row {
                    bin_width: w,
                    jt,
                    malicious_pairs_training: 0,
                    malicious_pairs_testing: 0,
                    all_pairs_testing: 0,
                };
                for day in self.engine.days() {
                    let pairs =
                        self.engine.automated_pairs_sweep(day, &automation).expect("retained day");
                    let in_testing = testing_days.contains(&day);
                    for (h, d, _) in pairs {
                        let name = self.engine.resolve(d);
                        let key = (h.index(), name);
                        if truth_train.contains(&key) {
                            row.malicious_pairs_training += 1;
                        } else if truth_test.contains(&key) {
                            row.malicious_pairs_testing += 1;
                        }
                        if in_testing {
                            row.all_pairs_testing += 1;
                        }
                    }
                }
                row
            })
            .collect()
    }

    /// Fig. 3: first-visit gap populations over the training campaigns.
    pub fn figure3(&self) -> Fig3Data {
        let mut data = Fig3Data::default();
        for c in self.challenge.training() {
            let Some(index) = self.engine.day_index(c.day) else { continue };
            let folded = self.engine.folded();
            let mal_syms: Vec<_> =
                c.answer_domains().iter().filter_map(|n| folded.get(n)).collect();
            for &victim in &c.plan.victims {
                // First-contact times to malicious domains.
                let mal_firsts: Vec<Timestamp> =
                    mal_syms.iter().filter_map(|&m| index.first_contact(victim, m)).collect();
                for (i, &a) in mal_firsts.iter().enumerate() {
                    for &b in &mal_firsts[i + 1..] {
                        data.malicious_malicious.push(a.abs_diff(b) as f64);
                    }
                }
                // Gaps to the victim's rare legitimate domains.
                if let Some(rdoms) = index.rare_domains_of(victim) {
                    for &r in rdoms {
                        if mal_syms.contains(&r) {
                            continue;
                        }
                        let Some(t_leg) = index.first_contact(victim, r) else { continue };
                        for &a in &mal_firsts {
                            data.malicious_legitimate.push(a.abs_diff(t_leg) as f64);
                        }
                    }
                }
            }
        }
        data.malicious_malicious.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        data.malicious_legitimate.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        data
    }

    /// Solves one campaign with the paper's per-case protocol and scores
    /// the result against the answer key.
    pub fn evaluate_campaign(&self, campaign: &LanlCampaign) -> CampaignResult {
        let investigation = match campaign.case {
            // No hints: the daily C&C pass seeds belief propagation, and
            // the C&C domains count as detections.
            ChallengeCase::Four => Investigation::no_hint(),
            _ => Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
        };
        let report =
            self.engine.investigate(campaign.day, investigation).expect("campaign day processed");

        let detected: Vec<String> = report.reported_names();
        let answer: BTreeSet<&str> = campaign.answer_domains().into_iter().collect();
        let detected_set: BTreeSet<&str> = detected.iter().map(String::as_str).collect();
        let true_positives = detected_set.iter().filter(|d| answer.contains(*d)).count();
        let false_positives = detected_set.len() - true_positives;
        let false_negatives = answer.iter().filter(|d| !detected_set.contains(*d)).count();

        CampaignResult {
            march_day: campaign.march_day,
            case: campaign.case,
            training: campaign.is_training(),
            true_positives,
            false_positives,
            false_negatives,
            detected,
            outcome: report.outcome,
        }
    }

    /// Solves every campaign and aggregates Table III.
    pub fn table3(&self) -> (Table3, Vec<CampaignResult>) {
        let results: Vec<CampaignResult> =
            self.challenge.campaigns.iter().map(|c| self.evaluate_campaign(c)).collect();
        let mut table = Table3::default();
        for case_no in 1..=4u32 {
            let mut train = DetectionTally::default();
            let mut test = DetectionTally::default();
            for r in results.iter().filter(|r| r.case.number() == case_no) {
                let tally = DetectionTally {
                    true_positives: r.true_positives,
                    false_positives: r.false_positives,
                    false_negatives: r.false_negatives,
                    new_discoveries: 0,
                };
                if r.training {
                    train.add(tally);
                } else {
                    test.add(tally);
                }
            }
            table.training_total.add(train);
            table.testing_total.add(test);
            table.rows.push((case_no, train, test));
        }
        (table, results)
    }

    /// Fig. 4: the belief-propagation trace for the case-3 campaign on the
    /// given March day (3/19 in the paper).
    pub fn figure4(&self, march_day: u32) -> Option<CampaignResult> {
        let campaign = self
            .challenge
            .campaigns
            .iter()
            .find(|c| c.march_day == march_day && c.case == ChallengeCase::Three)?;
        Some(self.evaluate_campaign(campaign))
    }
}

/// The paper's Table II parameter grid.
pub fn table2_grid() -> Vec<(u64, f64)> {
    vec![
        (5, 0.0),
        (5, 0.034),
        (5, 0.06),
        (5, 0.35),
        (10, 0.0),
        (10, 0.034),
        (10, 0.06),
        (20, 0.0),
        (20, 0.034),
        (20, 0.06),
    ]
}
