//! Simulated VirusTotal oracle with reporting lag.
//!
//! The paper queries VirusTotal twice: during *training* ("label it
//! 'reported' if at least one anti-virus engine reports it", §VI-A) and for
//! *validation* three months after detection ("to allow anti-virus and
//! blacklists to catch up", §VI-B). Modeling a per-domain first-report day
//! captures both: a domain can be unreported at detection time and reported
//! at validation time, which is exactly what produces the paper's
//! "new discovery" category.

use earlybird_logmodel::Day;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-domain first-report days, keyed by folded domain name.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VirusTotalOracle {
    first_reported: HashMap<String, Day>,
}

impl VirusTotalOracle {
    /// Creates an oracle with no reports.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that at least one engine reports `domain` starting on `day`.
    /// A later call with an earlier day moves the report earlier.
    pub fn add_report(&mut self, domain: &str, day: Day) {
        self.first_reported
            .entry(domain.to_owned())
            .and_modify(|d| {
                if day < *d {
                    *d = day;
                }
            })
            .or_insert(day);
    }

    /// Whether `domain` is reported by some engine as of `as_of`.
    pub fn is_reported(&self, domain: &str, as_of: Day) -> bool {
        self.first_reported.get(domain).is_some_and(|&d| d <= as_of)
    }

    /// Whether `domain` is *ever* reported within the simulation horizon
    /// (the paper's "three months later" validation pass).
    pub fn is_ever_reported(&self, domain: &str) -> bool {
        self.first_reported.contains_key(domain)
    }

    /// Number of reported domains.
    pub fn len(&self) -> usize {
        self.first_reported.len()
    }

    /// Whether no domains are reported.
    pub fn is_empty(&self) -> bool {
        self.first_reported.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_visibility_respects_lag() {
        let mut vt = VirusTotalOracle::new();
        vt.add_report("trojan.ru", Day::new(40));
        assert!(!vt.is_reported("trojan.ru", Day::new(35)), "not yet caught up");
        assert!(vt.is_reported("trojan.ru", Day::new(40)));
        assert!(vt.is_ever_reported("trojan.ru"));
        assert!(!vt.is_ever_reported("clean.com"));
    }

    #[test]
    fn earlier_report_wins() {
        let mut vt = VirusTotalOracle::new();
        vt.add_report("x.info", Day::new(50));
        vt.add_report("x.info", Day::new(20));
        vt.add_report("x.info", Day::new(60));
        assert!(vt.is_reported("x.info", Day::new(20)), "the earliest report day stands");
        assert!(!vt.is_reported("x.info", Day::new(19)));
    }

    #[test]
    fn unknown_domain_never_reported() {
        let vt = VirusTotalOracle::new();
        assert!(!vt.is_reported("nosuch.org", Day::new(100)));
        assert!(vt.is_empty());
    }
}
