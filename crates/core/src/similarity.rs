//! Domain-similarity scoring for belief propagation (§IV-D, §V-B).
//!
//! Scores a candidate rare domain against the set of already-labeled
//! malicious domains. Two variants, as in the paper:
//!
//! * [`SimScorer::Regression`] — the enterprise model over eight features;
//! * [`SimScorer::Additive`] — the LANL fallback: normalized sum of
//!   connectivity, timing-correlation and IP-proximity components with
//!   threshold `T_s = 0.25`.

use crate::context::DayContext;
use crate::extract::sim_features;
use earlybird_features::{AdditiveScorer, FeatureScaler, IpProximity, RegressionModel};
use earlybird_logmodel::DomainSym;
use std::collections::BTreeSet;

/// Scorer for `Compute_SimScore` in Algorithm 1.
#[derive(Clone, Debug)]
pub enum SimScorer {
    /// Trained linear regression over the eight similarity features.
    Regression {
        /// The fitted model (threshold `T_s` inside).
        model: RegressionModel,
        /// The feature scaler fitted alongside.
        scaler: FeatureScaler,
    },
    /// The LANL additive function with explicit threshold and the
    /// timing-correlation window (Fig. 3 motivates ~160 s).
    Additive {
        /// Component scorer.
        scorer: AdditiveScorer,
        /// Decision threshold `T_s`.
        threshold: f64,
        /// Two first-visits within this many seconds count as correlated.
        correlation_window_secs: u64,
    },
}

impl SimScorer {
    /// The LANL configuration: additive scorer, `T_s = 0.25`, 160 s window.
    pub fn lanl_default() -> Self {
        SimScorer::Additive {
            scorer: AdditiveScorer::paper_default(),
            threshold: AdditiveScorer::PAPER_THRESHOLD,
            correlation_window_secs: 160,
        }
    }

    /// The decision threshold `T_s`.
    pub fn threshold(&self) -> f64 {
        match self {
            SimScorer::Regression { model, .. } => model.threshold(),
            SimScorer::Additive { threshold, .. } => *threshold,
        }
    }

    /// Replaces the decision threshold (the SOC capacity knob of §VI).
    pub fn set_threshold(&mut self, t: f64) {
        match self {
            SimScorer::Regression { model, .. } => model.set_threshold(t),
            SimScorer::Additive { threshold, .. } => *threshold = t,
        }
    }

    /// Scores `domain` against the malicious set.
    pub fn score(
        &self,
        ctx: &DayContext<'_>,
        domain: DomainSym,
        malicious: &BTreeSet<DomainSym>,
    ) -> f64 {
        match self {
            SimScorer::Regression { model, scaler } => {
                let f = sim_features(ctx, domain, malicious);
                model.score(&scaler.transform(&f.to_row()))
            }
            SimScorer::Additive { scorer, correlation_window_secs, .. } => {
                let f = sim_features(ctx, domain, malicious);
                let timing =
                    f.min_interval_secs.is_some_and(|dt| dt <= *correlation_window_secs as f64);
                let ip = if f.ip24 {
                    IpProximity::SameSubnet24
                } else if f.ip16 {
                    IpProximity::SameSubnet16
                } else {
                    IpProximity::None
                };
                scorer.score(f.no_hosts as u32, timing, ip).total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::min_interval_to_malicious;
    use earlybird_logmodel::{Day, DomainInterner, HostId, Ipv4, Timestamp};
    use earlybird_pipeline::{Contact, DayIndex, DomainHistory, RareSieve};

    fn build(_folded: &DomainInterner, contacts: &mut [Contact]) -> DayIndex {
        contacts.sort_by_key(|c| c.ts);
        let rare = RareSieve::paper_default().extract(contacts, &DomainHistory::new());
        DayIndex::build(Day::new(0), contacts, rare, None)
    }

    fn contact(
        folded: &DomainInterner,
        ts: u64,
        host: u32,
        name: &str,
        ip: Option<Ipv4>,
    ) -> Contact {
        Contact {
            ts: Timestamp::from_secs(ts),
            host: HostId::new(host),
            domain: folded.intern(name),
            dest_ip: ip,
            http: None,
        }
    }

    #[test]
    fn correlated_and_proximate_domain_scores_high() {
        let folded = DomainInterner::new();
        let mut contacts = vec![
            contact(&folded, 100, 1, "mal.c3", Some(Ipv4::new(191, 146, 166, 145))),
            contact(&folded, 150, 1, "cand.c3", Some(Ipv4::new(191, 146, 166, 31))),
            contact(&folded, 155, 2, "cand.c3", Some(Ipv4::new(191, 146, 166, 31))),
        ];
        let index = build(&folded, &mut contacts);
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let scorer = SimScorer::lanl_default();
        let mal: BTreeSet<DomainSym> = [folded.get("mal.c3").unwrap()].into_iter().collect();
        let cand = folded.get("cand.c3").unwrap();
        let s = scorer.score(&ctx, cand, &mal);
        // connectivity 2/3 + timing 1 + ip24 1 -> (0.667 + 1 + 1)/3 ≈ 0.889
        assert!(s > 0.8, "score = {s}");
        assert!(s >= scorer.threshold());
        // Within the LANL scorer's 160 s correlation window.
        assert!(min_interval_to_malicious(&ctx, cand, &mal).is_some_and(|dt| dt <= 160.0));
    }

    #[test]
    fn unrelated_domain_scores_below_lanl_threshold() {
        let folded = DomainInterner::new();
        let mut contacts = vec![
            contact(&folded, 100, 1, "mal.c3", Some(Ipv4::new(191, 146, 166, 145))),
            contact(&folded, 40_000, 2, "noise.c3", Some(Ipv4::new(8, 8, 8, 8))),
        ];
        let index = build(&folded, &mut contacts);
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let scorer = SimScorer::lanl_default();
        let mal: BTreeSet<DomainSym> = [folded.get("mal.c3").unwrap()].into_iter().collect();
        let s = scorer.score(&ctx, folded.get("noise.c3").unwrap(), &mal);
        assert!(s < scorer.threshold(), "score = {s}");
    }

    #[test]
    fn threshold_is_adjustable() {
        let mut scorer = SimScorer::lanl_default();
        assert_eq!(scorer.threshold(), 0.25);
        scorer.set_threshold(0.5);
        assert_eq!(scorer.threshold(), 0.5);
    }

    #[test]
    fn correlation_window_is_respected() {
        let folded = DomainInterner::new();
        let mut contacts = vec![
            contact(&folded, 100, 1, "mal.c3", None),
            contact(&folded, 100 + 161, 1, "late.c3", None),
        ];
        let index = build(&folded, &mut contacts);
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let mal: BTreeSet<DomainSym> = [folded.get("mal.c3").unwrap()].into_iter().collect();
        let late = folded.get("late.c3").unwrap();
        // One second past the LANL scorer's 160 s correlation window.
        assert!(min_interval_to_malicious(&ctx, late, &mal).is_some_and(|dt| dt > 160.0));
    }
}
