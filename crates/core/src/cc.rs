//! The C&C communication detector (§IV-C).
//!
//! A rare domain is a potential C&C when (a) at least one host shows
//! *automated* (beacon-like) connections to it, and (b) its feature score
//! clears the threshold `T_c`. Two scoring models are provided:
//!
//! * [`CcModel::Regression`] — the enterprise model: six features combined
//!   by a trained linear regression (Fig. 5 / Fig. 6(a));
//! * [`CcModel::LanlHeuristic`] — the LANL fallback (§V-B): "we consider an
//!   automated domain as potential C&C if there are at least two distinct
//!   hosts communicating with the domain at similar time periods (within 10
//!   seconds)", since registration and HTTP features are unavailable there.

use crate::context::DayContext;
use crate::extract::cc_features;
use earlybird_features::{FeatureScaler, RegressionModel};
use earlybird_logmodel::{DomainSym, HostId};
use earlybird_pipeline::DayIndex;
use earlybird_timing::{AutomationDetector, AutomationEvidence};
use serde::{Deserialize, Serialize};

/// A domain flagged as potential C&C.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcDetection {
    /// The flagged (folded) domain.
    pub domain: DomainSym,
    /// Model score (regression score, or the automated-host count for the
    /// LANL heuristic).
    pub score: f64,
    /// Hosts with automated connections to the domain, with evidence.
    pub auto_hosts: Vec<(HostId, AutomationEvidence)>,
}

impl CcDetection {
    /// The estimated beacon period (of the first automated host).
    pub fn period(&self) -> Option<u64> {
        self.auto_hosts.first().map(|(_, ev)| ev.period)
    }
}

/// Scoring model for automated domains.
#[derive(Clone, Debug)]
pub enum CcModel {
    /// Trained linear regression over the six C&C features, with min-max
    /// scaling fitted on the training population.
    Regression {
        /// The fitted model (threshold `T_c` inside).
        model: RegressionModel,
        /// The feature scaler fitted alongside.
        scaler: FeatureScaler,
    },
    /// The LANL two-host heuristic: at least `min_hosts` automated hosts
    /// whose beacon periods agree within `period_tolerance_secs`.
    LanlHeuristic {
        /// Minimum automated hosts (2 in the paper).
        min_hosts: usize,
        /// Maximum period disagreement in seconds (10 in the paper).
        period_tolerance_secs: u64,
    },
}

/// The complete C&C detector: automation pass + scoring model.
///
/// Internal plumbing: the daily C&C sweep runs inside
/// `earlybird-engine`'s `Engine::ingest_day` / `Engine::cc_scores`, which
/// also shard it across worker threads.
#[derive(Clone, Debug)]
pub struct CcDetector {
    automation: AutomationDetector,
    model: CcModel,
}

impl CcDetector {
    /// Creates a detector from an automation detector and a scoring model.
    pub fn new(automation: AutomationDetector, model: CcModel) -> Self {
        CcDetector { automation, model }
    }

    /// The LANL-mode detector with the paper's parameters.
    pub fn lanl_default() -> Self {
        CcDetector::new(
            AutomationDetector::paper_default(),
            CcModel::LanlHeuristic { min_hosts: 2, period_tolerance_secs: 10 },
        )
    }

    /// The scoring model in use.
    pub fn model(&self) -> &CcModel {
        &self.model
    }

    /// Hosts with automated connections to `domain`, with evidence.
    pub fn automated_hosts(
        &self,
        ctx: &DayContext<'_>,
        domain: DomainSym,
    ) -> Vec<(HostId, AutomationEvidence)> {
        let Some(hosts) = ctx.index.hosts_of(domain) else {
            return Vec::new();
        };
        hosts
            .iter()
            .filter_map(|&h| {
                let series = ctx.index.beacon_series(h, domain)?;
                self.automation.evaluate(series).map(|ev| (h, ev))
            })
            .collect()
    }

    /// Model score for a domain whose automated hosts are already known
    /// (no threshold applied): the regression score, or the automated-host
    /// count under the LANL heuristic.
    pub fn score_with(
        &self,
        ctx: &DayContext<'_>,
        domain: DomainSym,
        auto_hosts: &[(HostId, AutomationEvidence)],
    ) -> f64 {
        match &self.model {
            CcModel::Regression { model, scaler } => {
                let features = cc_features(ctx, domain, auto_hosts.len());
                model.score(&scaler.transform(&features.to_row()))
            }
            CcModel::LanlHeuristic { .. } => auto_hosts.len() as f64,
        }
    }

    /// The model's detection decision given a score and the automated-host
    /// evidence: threshold for the regression, the agreeing-period cluster
    /// rule for the LANL heuristic.
    pub fn is_detection(&self, score: f64, auto_hosts: &[(HostId, AutomationEvidence)]) -> bool {
        match &self.model {
            CcModel::Regression { model, .. } => score >= model.threshold(),
            CcModel::LanlHeuristic { min_hosts, period_tolerance_secs } => {
                if auto_hosts.len() < *min_hosts {
                    return false;
                }
                // Require a cluster of >= min_hosts hosts with agreeing
                // periods.
                let mut periods: Vec<u64> = auto_hosts.iter().map(|(_, ev)| ev.period).collect();
                periods.sort_unstable();
                periods.windows(*min_hosts).any(|w| w[w.len() - 1] - w[0] <= *period_tolerance_secs)
            }
        }
    }

    /// Evaluates a single rare domain, returning a detection if it is
    /// automated *and* its score clears the model's threshold. This is the
    /// `Detect_C&C` function of Algorithm 1.
    pub fn evaluate(&self, ctx: &DayContext<'_>, domain: DomainSym) -> Option<CcDetection> {
        let auto_hosts = self.automated_hosts(ctx, domain);
        if auto_hosts.is_empty() {
            return None;
        }
        let score = self.score_with(ctx, domain, &auto_hosts);
        self.is_detection(score, &auto_hosts).then_some(CcDetection { domain, score, auto_hosts })
    }

    /// Scores every rare domain of the day, returning all detections sorted
    /// by descending score (the daily C&C pass of §III-E).
    pub fn detect_all(&self, ctx: &DayContext<'_>) -> Vec<CcDetection> {
        let mut out: Vec<CcDetection> =
            ctx.index.rare_domains().filter_map(|d| self.evaluate(ctx, d)).collect();
        out.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        out
    }
}

/// All automated `(host, domain, evidence)` pairs among a day's rare
/// domains under an arbitrary beacon detector, sorted by `(domain, host)` —
/// the Table II parameter-sweep population. Model-independent: only the
/// automation detector matters, so sweeps need not construct a full
/// [`CcDetector`].
pub fn automated_pairs_with(
    index: &DayIndex,
    automation: &AutomationDetector,
) -> Vec<(HostId, DomainSym, AutomationEvidence)> {
    let mut out = Vec::new();
    for domain in index.rare_domains() {
        let Some(hosts) = index.hosts_of(domain) else { continue };
        for &host in hosts {
            if let Some(series) = index.beacon_series(host, domain) {
                if let Some(ev) = automation.evaluate(series) {
                    out.push((host, domain, ev));
                }
            }
        }
    }
    out.sort_by_key(|&(h, d, _)| (d, h));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{Day, DomainInterner, Ipv4, Timestamp};
    use earlybird_pipeline::{Contact, DayIndex, DomainHistory, RareSieve};

    struct World {
        folded: DomainInterner,
        contacts: Vec<Contact>,
    }

    impl World {
        fn new() -> Self {
            World { folded: DomainInterner::new(), contacts: Vec::new() }
        }

        fn beacon(&mut self, host: u32, name: &str, period: u64, n: u64, phase: u64) {
            for i in 0..n {
                self.contacts.push(Contact {
                    ts: Timestamp::from_secs(phase + i * period),
                    host: HostId::new(host),
                    domain: self.folded.intern(name),
                    dest_ip: Some(Ipv4::new(80, 1, 2, 3)),
                    http: None,
                });
            }
        }

        fn visits(&mut self, host: u32, name: &str, times: &[u64]) {
            for &t in times {
                self.contacts.push(Contact {
                    ts: Timestamp::from_secs(t),
                    host: HostId::new(host),
                    domain: self.folded.intern(name),
                    dest_ip: None,
                    http: None,
                });
            }
        }

        fn ctx_index(&mut self) -> DayIndex {
            self.contacts.sort_by_key(|c| c.ts);
            let rare = RareSieve::paper_default().extract(&self.contacts, &DomainHistory::new());
            DayIndex::build(Day::new(0), &self.contacts, rare, None)
        }
    }

    fn ctx<'a>(index: &'a DayIndex, folded: &'a DomainInterner) -> DayContext<'a> {
        DayContext { day: Day::new(0), index, folded, whois: None, whois_defaults: (0.0, 0.0) }
    }

    #[test]
    fn lanl_heuristic_needs_two_agreeing_hosts() {
        let mut w = World::new();
        w.beacon(1, "cc.c3", 600, 20, 0);
        w.beacon(2, "cc.c3", 602, 20, 37); // within 10 s of 600
        w.beacon(3, "solo.c3", 600, 20, 0); // single host
        let index = w.ctx_index();
        let ctx = ctx(&index, &w.folded);
        let det = CcDetector::lanl_default();

        let cc = w.folded.get("cc.c3").unwrap();
        let solo = w.folded.get("solo.c3").unwrap();
        assert!(det.evaluate(&ctx, cc).is_some());
        assert!(det.evaluate(&ctx, solo).is_none(), "one host is not enough in LANL mode");
    }

    #[test]
    fn lanl_heuristic_rejects_disagreeing_periods() {
        let mut w = World::new();
        w.beacon(1, "upd.c3", 1800, 20, 0);
        w.beacon(2, "upd.c3", 3600, 10, 11); // different cadence
        let index = w.ctx_index();
        let ctx = ctx(&index, &w.folded);
        let det = CcDetector::lanl_default();
        assert!(det.evaluate(&ctx, w.folded.get("upd.c3").unwrap()).is_none());
    }

    #[test]
    fn non_automated_domain_is_never_cc() {
        let mut w = World::new();
        w.visits(1, "web.c3", &[10, 450, 470, 9_000, 15_000]);
        w.visits(2, "web.c3", &[99, 5_000, 5_003, 30_000, 31_234]);
        let index = w.ctx_index();
        let ctx = ctx(&index, &w.folded);
        let det = CcDetector::lanl_default();
        assert!(det.evaluate(&ctx, w.folded.get("web.c3").unwrap()).is_none());
        assert!(automated_pairs_with(ctx.index, &det.automation).is_empty());
    }

    #[test]
    fn detect_all_sorts_by_score() {
        let mut w = World::new();
        w.beacon(1, "a.c3", 600, 20, 0);
        w.beacon(2, "a.c3", 600, 20, 7);
        w.beacon(3, "b.c3", 300, 30, 0);
        w.beacon(4, "b.c3", 300, 30, 5);
        w.beacon(5, "b.c3", 303, 30, 9);
        let index = w.ctx_index();
        let ctx = ctx(&index, &w.folded);
        let det = CcDetector::lanl_default();
        let all = det.detect_all(&ctx);
        assert_eq!(all.len(), 2);
        assert!(all[0].score >= all[1].score);
        assert_eq!(all[0].domain, w.folded.get("b.c3").unwrap(), "3 hosts beats 2");
        assert!(all[0].period().is_some());
    }

    #[test]
    fn regression_model_thresholds_scores() {
        use earlybird_features::{LinearRegression, CC_FEATURE_NAMES};
        // Train a toy model where the label is driven by NoRef.
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let no_ref = if i % 2 == 0 { 1.0 } else { 0.0 };
                vec![1.0, 1.0, no_ref, 0.5, 100.0, 100.0]
            })
            .collect();
        let y: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let scaler = FeatureScaler::fit(&xs).unwrap();
        let scaled = scaler.transform_all(&xs);
        // Constant features collapse to zero columns under scaling; ridge
        // keeps the toy system well-posed.
        let fit = LinearRegression::fit_ridge(&scaled, &y, 1e-6).unwrap();
        let model = RegressionModel::new(&CC_FEATURE_NAMES, fit, 0.5);

        let mut w = World::new();
        // Automated single-host beacon, no HTTP context -> no_ref = 0 -> score ~0.
        w.beacon(1, "low.ru", 600, 20, 0);
        let index = w.ctx_index();
        let ctx = ctx(&index, &w.folded);
        let det = CcDetector::new(
            AutomationDetector::paper_default(),
            CcModel::Regression { model, scaler },
        );
        assert!(
            det.evaluate(&ctx, w.folded.get("low.ru").unwrap()).is_none(),
            "score below threshold must not detect"
        );
        // Single automated host *is* enough in regression mode if the score
        // clears the bar — verified by the pair count being non-empty while
        // the evaluation stays threshold-driven.
        assert_eq!(automated_pairs_with(ctx.index, &det.automation).len(), 1);
    }
}
