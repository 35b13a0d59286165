//! The enterprise (AC) evaluation harness (§VI): drives the unified
//! [`Engine`] facade over two months of proxy logs, trains the C&C and
//! similarity regression models on the first two February weeks, and
//! regenerates Fig. 5, Fig. 6(a)/(b)/(c) and the Fig. 7/8 case studies.

use earlybird_core::{BpOutcome, LabelReason};
use earlybird_engine::{DayBatch, Engine, EngineBuilder, Investigation, TrainingReport};
use earlybird_features::FitError;
use earlybird_intel::{DetectionCategory, TrueClass};
use earlybird_logmodel::{Day, DomainSym};
use earlybird_synthgen::ac::AcWorld;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Fig. 5 data: training-set scores of VT-reported vs. legitimate automated
/// domains, sorted ascending.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// Scores of domains reported by VirusTotal at training time.
    pub reported: Vec<f64>,
    /// Scores of the remaining (presumed legitimate) automated domains.
    pub legitimate: Vec<f64>,
}

/// One stacked bar of Fig. 6: category counts at one threshold.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// The score threshold.
    pub threshold: f64,
    /// Detections known to VirusTotal or the SOC at validation time.
    pub known: usize,
    /// Truly malicious detections unknown to both (new discoveries).
    pub new_malicious: usize,
    /// Suspicious detections.
    pub suspicious: usize,
    /// Benign detections (false positives).
    pub legitimate: usize,
}

impl Fig6Row {
    /// All detections at this threshold.
    pub fn total(&self) -> usize {
        self.known + self.new_malicious + self.suspicious + self.legitimate
    }

    /// True detection rate (malicious + suspicious over all).
    pub fn tdr(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.known + self.new_malicious + self.suspicious) as f64 / self.total() as f64
        }
    }

    /// New-discovery rate.
    pub fn ndr(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.new_malicious + self.suspicious) as f64 / self.total() as f64
        }
    }
}

/// A detected community for the Fig. 7/8 case studies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaseStudy {
    /// February day-of-month.
    pub feb_day: u32,
    /// The raw outcome with iteration traces.
    pub outcome: BpOutcome,
    /// `(domain name, reason, score, category)` per labeled domain.
    pub domains: Vec<(String, LabelReason, f64, DetectionCategory)>,
    /// Number of compromised hosts in the community.
    pub host_count: usize,
    /// Graphviz rendering of the community.
    pub dot: String,
}

/// The trained enterprise harness.
pub struct AcHarness<'a> {
    world: &'a AcWorld,
    engine: Engine,
    training: TrainingReport,
    /// Per-day raw scores of every rare automated domain: `(day, sym, score)`.
    cc_scores: Vec<(Day, DomainSym, f64)>,
    /// Training-population scores with VT labels (Fig. 5).
    training_scores: Vec<(f64, bool)>,
}

impl<'a> AcHarness<'a> {
    /// Bootstraps on January, processes February through the engine, trains
    /// both models on the first two February weeks, and scores every
    /// automated domain with the trained model.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`FitError`] when the synthetic population is
    /// too small to fit the regressions (use a larger
    /// [`earlybird_synthgen::ac::AcConfig`]).
    pub fn build(world: &'a AcWorld) -> Result<Self, FitError> {
        let mut engine = EngineBuilder::enterprise()
            .whois(world.intel.whois.clone())
            .build(std::sync::Arc::clone(&world.dataset.domains), world.dataset.meta.clone())
            .expect("enterprise engine config is valid");
        for day_log in &world.dataset.days {
            engine.ingest_day(DayBatch::Proxy { day: day_log, dhcp: &world.dataset.dhcp });
        }

        let train_end = world.config.feb_day(14);
        let training = engine.train_enterprise(train_end, &world.intel.vt, 0.4, 0.4)?;

        // Score every automated domain over the whole month with the
        // trained model.
        let mut cc_scores = Vec::new();
        let mut training_scores = Vec::new();
        let days: Vec<Day> = engine.days().collect();
        for day in days {
            for cand in engine.cc_scores(day).expect("retained day") {
                cc_scores.push((day, cand.domain, cand.score));
                if day <= train_end {
                    training_scores
                        .push((cand.score, world.intel.vt.is_reported(&cand.name, train_end)));
                }
            }
        }

        Ok(AcHarness { world, engine, training, cc_scores, training_scores })
    }

    /// The world the harness was built over.
    pub fn world(&self) -> &'a AcWorld {
        self.world
    }

    /// The engine holding the processed days and trained models.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The training summary (fitted C&C model statistics).
    pub fn training(&self) -> &TrainingReport {
        &self.training
    }

    /// The WHOIS population defaults `(DomAge, DomValidity)`.
    pub fn whois_defaults(&self) -> (f64, f64) {
        self.engine.whois_defaults()
    }

    /// Validation category of a folded domain name, using the paper's
    /// months-later semantics (VT and IOC knowledge with full catch-up).
    pub fn categorize(&self, name: &str) -> DetectionCategory {
        let intel = &self.world.intel;
        if intel.vt.is_ever_reported(name) || intel.ioc.contains_ever(name) {
            return DetectionCategory::KnownMalicious;
        }
        match intel.truth.class_of(name) {
            TrueClass::Malicious(_) => DetectionCategory::NewMalicious,
            TrueClass::Suspicious => DetectionCategory::Suspicious,
            TrueClass::Benign => DetectionCategory::Legitimate,
        }
    }

    fn tally(&self, threshold: f64, names: impl IntoIterator<Item = String>) -> Fig6Row {
        let mut row =
            Fig6Row { threshold, known: 0, new_malicious: 0, suspicious: 0, legitimate: 0 };
        for name in names {
            match self.categorize(&name) {
                DetectionCategory::KnownMalicious => row.known += 1,
                DetectionCategory::NewMalicious => row.new_malicious += 1,
                DetectionCategory::Suspicious => row.suspicious += 1,
                DetectionCategory::Legitimate => row.legitimate += 1,
            }
        }
        row
    }

    /// Fig. 5: training-population score CDFs.
    pub fn figure5(&self) -> Fig5 {
        let mut fig = Fig5::default();
        for &(score, reported) in &self.training_scores {
            if reported {
                fig.reported.push(score);
            } else {
                fig.legitimate.push(score);
            }
        }
        fig.reported.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        fig.legitimate.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        fig
    }

    /// Fig. 6(a): distinct domains labeled C&C at each threshold, by
    /// validation category.
    pub fn figure6a(&self, thresholds: &[f64]) -> Vec<Fig6Row> {
        thresholds
            .iter()
            .map(|&t| {
                let mut names: BTreeSet<String> = BTreeSet::new();
                for (_day, dom, score) in &self.cc_scores {
                    if *score >= t {
                        names.insert(self.engine.resolve(*dom));
                    }
                }
                self.tally(t, names)
            })
            .collect()
    }

    /// Fig. 6(b): the no-hint mode. C&C domains at threshold `tc` seed
    /// belief propagation; the similarity threshold `T_s` sweeps
    /// `ts_values`. Detected C&C seeds count as detections (they are this
    /// mode's own output).
    pub fn figure6b(&self, tc: f64, ts_values: &[f64]) -> Vec<Fig6Row> {
        ts_values
            .iter()
            .map(|&ts| {
                let mut names: BTreeSet<String> = BTreeSet::new();
                for day in self.engine.days().collect::<Vec<_>>() {
                    let seeds_syms: Vec<DomainSym> = self
                        .cc_scores
                        .iter()
                        .filter(|(d, _, s)| *d == day && *s >= tc)
                        .map(|(_, dom, _)| *dom)
                        .collect();
                    if seeds_syms.is_empty() {
                        continue;
                    }
                    let report = self
                        .engine
                        .investigate(
                            day,
                            Investigation::from_seed_domains(seeds_syms)
                                .sim_threshold(ts)
                                .count_seeds(true),
                        )
                        .expect("retained day");
                    for d in &report.outcome.labeled {
                        names.insert(self.engine.resolve(d.domain));
                    }
                }
                self.tally(ts, names)
            })
            .collect()
    }

    /// Fig. 6(c): the SOC-hints mode, seeded with the IOC feed; seeds are
    /// *not* counted as detections.
    pub fn figure6c(&self, ts_values: &[f64]) -> Vec<Fig6Row> {
        ts_values
            .iter()
            .map(|&ts| {
                let mut names: BTreeSet<String> = BTreeSet::new();
                for day in self.engine.days().collect::<Vec<_>>() {
                    let seeds_syms = self.ioc_seeds_on(day);
                    if seeds_syms.is_empty() {
                        continue;
                    }
                    let report = self
                        .engine
                        .investigate(
                            day,
                            Investigation::from_seed_domains(seeds_syms).sim_threshold(ts),
                        )
                        .expect("retained day");
                    for d in report.outcome.detected() {
                        names.insert(self.engine.resolve(d.domain));
                    }
                }
                self.tally(ts, names)
            })
            .collect()
    }

    /// IOC-feed seed domains visible on `day` that were actually contacted.
    fn ioc_seeds_on(&self, day: Day) -> Vec<DomainSym> {
        let Some(index) = self.engine.day_index(day) else { return Vec::new() };
        let folded = self.engine.folded();
        self.world
            .intel
            .ioc
            .visible(day)
            .filter_map(|name| folded.get(name))
            .filter(|&d| index.connectivity(d) > 0)
            .collect()
    }

    /// The Fig. 7 case study: the no-hint community on a February day
    /// (2/13 in the paper).
    pub fn case_study_nohint(&self, feb_day: u32, tc: f64, ts: f64) -> Option<CaseStudy> {
        let day = self.world.config.feb_day(feb_day);
        self.engine.day_index(day)?;
        let seeds_syms: Vec<DomainSym> = self
            .cc_scores
            .iter()
            .filter(|(d, _, s)| *d == day && *s >= tc)
            .map(|(_, dom, _)| *dom)
            .collect();
        let report = self
            .engine
            .investigate(
                day,
                Investigation::from_seed_domains(seeds_syms).sim_threshold(ts).count_seeds(true),
            )
            .ok()?;
        Some(self.finish_case_study(feb_day, day, report.outcome))
    }

    /// The Fig. 8 case study: the SOC-hints community on a February day
    /// (2/10 in the paper).
    pub fn case_study_hints(&self, feb_day: u32, ts: f64) -> Option<CaseStudy> {
        let day = self.world.config.feb_day(feb_day);
        self.engine.day_index(day)?;
        let seeds_syms = self.ioc_seeds_on(day);
        let report = self
            .engine
            .investigate(day, Investigation::from_seed_domains(seeds_syms).sim_threshold(ts))
            .ok()?;
        Some(self.finish_case_study(feb_day, day, report.outcome))
    }

    fn finish_case_study(&self, feb_day: u32, day: Day, out: BpOutcome) -> CaseStudy {
        let domains: Vec<(String, LabelReason, f64, DetectionCategory)> = out
            .labeled
            .iter()
            .map(|d| {
                let name = self.engine.resolve(d.domain);
                let cat = self.categorize(&name);
                (name, d.reason, d.score, cat)
            })
            .collect();
        let ctx = self.engine.context(day).expect("retained day");
        let dot = crate::dot::community_dot("community", &ctx, &out, |name| {
            match self.categorize(name) {
                DetectionCategory::KnownMalicious => "mediumpurple1",
                DetectionCategory::NewMalicious => "gray80",
                DetectionCategory::Suspicious => "khaki1",
                DetectionCategory::Legitimate => "palegreen",
            }
        });
        CaseStudy { feb_day, host_count: out.compromised_hosts.len(), outcome: out, domains, dot }
    }
}
