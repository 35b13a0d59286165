//! Enterprise training (§III-E steps 3–4) on top of the ingested history:
//! fits the C&C and similarity regressions and upgrades the engine's
//! models in place.

use crate::core_loop::Engine;
use crate::report::TrainingReport;
use earlybird_core::{
    cc_features, sim_features, train_cc_model, train_sim_model, whois_defaults, CcModel, CcSample,
    SimSample,
};
use earlybird_features::FitError;
use earlybird_intel::{VirusTotalOracle, WhoisAnswer};
use earlybird_logmodel::{Day, DomainSym};
use std::collections::BTreeSet;

impl Engine {
    /// Trains the enterprise models on the ingested days up to and
    /// including `train_end` (the paper uses the first two February weeks):
    ///
    /// 1. population-average WHOIS defaults over every automated domain,
    /// 2. the six-feature C&C regression with threshold `tc` (§IV-C),
    /// 3. the eight-feature similarity regression with threshold `ts`
    ///    (§IV-D),
    ///
    /// then installs all three into the engine, so subsequent
    /// [`Engine::ingest_day`] / [`Engine::investigate`] /
    /// [`Engine::cc_scores`] calls use the trained models.
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] when the training population is too small or
    /// degenerate.
    pub fn train_enterprise(
        &mut self,
        train_end: Day,
        vt: &VirusTotalOracle,
        tc: f64,
        ts: f64,
    ) -> Result<TrainingReport, FitError> {
        // Pass 1: WHOIS defaults over the automated-domain population of
        // the whole ingested window.
        let mut known_whois = Vec::new();
        if let Some(whois) = &self.config().whois {
            for &day in self.operation_products().keys() {
                for (domain, _) in automated_domains(self, day) {
                    let name = self.resolve(domain);
                    if let WhoisAnswer::Known { age_days, validity_days } = whois.lookup(&name, day)
                    {
                        known_whois.push((age_days, validity_days));
                    }
                }
            }
        }
        let defaults = whois_defaults(known_whois);
        self.set_whois_defaults(defaults);

        // Pass 2: labeled training samples from the training window.
        let mut cc_samples = Vec::new();
        let mut sim_samples = Vec::new();
        let days: Vec<Day> =
            self.operation_products().range(..=train_end).map(|(&d, _)| d).collect();
        for day in days {
            let product = &self.operation_products()[&day];
            let ctx = self.context(day).expect("retained day has context");
            let autos = automated_domains(self, day);

            for &(domain, auto_hosts) in &autos {
                let features = cc_features(&ctx, domain, auto_hosts);
                let name = self.resolve(domain);
                let reported = vt.is_reported(&name, train_end);
                cc_samples.push(CcSample { features, reported });
            }

            // Similarity training: rare non-automated domains contacted by
            // hosts that also contact VT-confirmed automated domains
            // (§VI-A).
            let mut confirmed: BTreeSet<DomainSym> = BTreeSet::new();
            let mut hosts = BTreeSet::new();
            for &(domain, _) in &autos {
                let name = self.resolve(domain);
                if vt.is_reported(&name, train_end) {
                    confirmed.insert(domain);
                    if let Some(hs) = product.index.hosts_of(domain) {
                        hosts.extend(hs.iter().copied());
                    }
                }
            }
            if confirmed.is_empty() {
                continue;
            }
            let mut seen = BTreeSet::new();
            for &h in &hosts {
                let Some(rdoms) = product.index.rare_domains_of(h) else { continue };
                for &d in rdoms {
                    if confirmed.contains(&d) || !seen.insert(d) {
                        continue;
                    }
                    let features = sim_features(&ctx, d, &confirmed);
                    let name = self.resolve(d);
                    let reported = vt.is_reported(&name, train_end);
                    sim_samples.push(SimSample { features, reported });
                }
            }
        }

        let (cc_model, cc_scaler) = train_cc_model(&cc_samples, tc)?;
        let (sim_model, sim_scaler) = train_sim_model(&sim_samples, ts)?;

        let report = TrainingReport {
            cc_samples: cc_samples.len(),
            sim_samples: sim_samples.len(),
            cc_r_squared: cc_model.fit().r_squared(),
            cc_summary: cc_model.summary(),
            sim_r_squared: sim_model.fit().r_squared(),
            sim_summary: sim_model.summary(),
            whois_defaults: defaults,
        };
        self.set_models(
            CcModel::Regression { model: cc_model, scaler: cc_scaler },
            earlybird_core::SimScorer::Regression { model: sim_model, scaler: sim_scaler },
        );
        Ok(report)
    }
}

/// Rare domains with automated connections on a retained day:
/// `(domain, automated host count)`, sorted by domain for determinism.
/// Uses the beacon-only sweep — training enumerates the automated
/// population repeatedly and does not need model scores here.
fn automated_domains(engine: &Engine, day: Day) -> Vec<(DomainSym, usize)> {
    let index = engine.day_index(day).expect("retained day");
    let pairs = earlybird_core::automated_pairs_with(index, &engine.config().automation);
    // Pairs arrive sorted by (domain, host); fold into per-domain counts.
    let mut out: Vec<(DomainSym, usize)> = Vec::new();
    for (_host, domain, _evidence) in pairs {
        match out.last_mut() {
            Some((last, count)) if *last == domain => *count += 1,
            _ => out.push((domain, 1)),
        }
    }
    out
}
