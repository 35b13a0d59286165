//! The per-day evaluation context handed to detectors and scorers.

use earlybird_intel::{WhoisAnswer, WhoisRegistry};
use earlybird_logmodel::{Day, DomainInterner, DomainSym};
use earlybird_pipeline::DayIndex;

/// Everything a detector needs to evaluate one day: the day's index, the
/// folded-name interner (for WHOIS lookups), and the WHOIS registry with the
/// population-average defaults used when a record is missing or unparseable
/// (§VI-C).
pub struct DayContext<'a> {
    /// The day under analysis.
    pub day: Day,
    /// The day's contact index.
    pub index: &'a DayIndex,
    /// Interner resolving folded domain symbols to names.
    pub folded: &'a DomainInterner,
    /// WHOIS registry, when available (absent for the anonymized LANL data).
    pub whois: Option<&'a WhoisRegistry>,
    /// Default `(DomAge, DomValidity)` substituted for missing WHOIS data.
    pub whois_defaults: (f64, f64),
}

impl<'a> DayContext<'a> {
    /// `(DomAge, DomValidity)` for a folded domain, falling back to the
    /// configured defaults when the registry is absent, the domain is
    /// unknown, or its record is unparseable.
    pub fn whois_features(&self, domain: DomainSym) -> (f64, f64) {
        let Some(whois) = self.whois else {
            return self.whois_defaults;
        };
        match self.folded.with_str(domain, |name| whois.lookup(name, self.day)) {
            WhoisAnswer::Known { age_days, validity_days } => (age_days, validity_days),
            WhoisAnswer::Unparseable | WhoisAnswer::NotFound => self.whois_defaults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_pipeline::{DomainHistory, RareSieve};

    #[test]
    fn whois_features_fall_back_to_defaults() {
        let folded = DomainInterner::new();
        let young = folded.intern("young.ru");
        let missing = folded.intern("missing.com");
        let mut whois = WhoisRegistry::new();
        whois.register("young.ru", Day::new(28), Day::new(90));

        let rare = RareSieve::paper_default().extract(&[], &DomainHistory::new());
        let index = DayIndex::build(Day::new(31), &[], rare, None);
        let ctx = DayContext {
            day: Day::new(31),
            index: &index,
            folded: &folded,
            whois: Some(&whois),
            whois_defaults: (400.0, 500.0),
        };
        assert_eq!(ctx.whois_features(young), (3.0, 59.0));
        assert_eq!(ctx.whois_features(missing), (400.0, 500.0));

        let ctx_no_whois = DayContext { whois: None, ..ctx };
        assert_eq!(ctx_no_whois.whois_features(young), (400.0, 500.0));
    }
}
