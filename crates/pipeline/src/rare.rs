//! Rare-destination extraction (§III-A): domains that are **new** (never
//! seen by any internal host in the history) and **unpopular** (contacted by
//! fewer than a threshold of distinct hosts in the day — "set at 10 based on
//! discussion with security professionals").

use crate::contact::Contact;
use crate::history::DomainHistory;
use earlybird_logmodel::{DomainSym, FastMap, FastSet, HostId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The rare destinations of one day, plus the day's per-domain host sets
/// (which the sieve computes anyway and downstream indexing reuses).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RareDomains {
    rare: FastSet<DomainSym>,
    new_count: usize,
    domain_hosts: FastMap<DomainSym, BTreeSet<HostId>>,
}

impl RareDomains {
    /// Whether `domain` is rare today.
    pub fn contains(&self, domain: DomainSym) -> bool {
        self.rare.contains(&domain)
    }

    /// The rare domains (unordered).
    pub fn iter(&self) -> impl Iterator<Item = DomainSym> + '_ {
        self.rare.iter().copied()
    }

    /// Number of rare domains.
    pub fn len(&self) -> usize {
        self.rare.len()
    }

    /// Whether no domain is rare today.
    pub fn is_empty(&self) -> bool {
        self.rare.is_empty()
    }

    /// Number of *new* domains today (before the unpopularity filter) — the
    /// "New destinations" series of Fig. 2.
    pub fn new_count(&self) -> usize {
        self.new_count
    }

    /// Distinct hosts contacting `domain` today (any domain, not just rare).
    pub fn hosts_of(&self, domain: DomainSym) -> Option<&BTreeSet<HostId>> {
        self.domain_hosts.get(&domain)
    }
}

/// The rare-destination sieve: combines a [`DomainHistory`] with the
/// unpopularity threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RareSieve {
    unpopular_threshold: usize,
}

impl RareSieve {
    /// Creates a sieve labeling domains unpopular when contacted by fewer
    /// than `unpopular_threshold` distinct hosts in a day.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is zero.
    pub fn new(unpopular_threshold: usize) -> Self {
        assert!(unpopular_threshold > 0, "threshold must be positive");
        RareSieve { unpopular_threshold }
    }

    /// The paper's threshold of 10 hosts.
    pub fn paper_default() -> Self {
        RareSieve::new(10)
    }

    /// Extracts the rare destinations of a day of contacts, relative to
    /// `history` (which must **not** yet include this day).
    pub fn extract(&self, contacts: &[Contact], history: &DomainHistory) -> RareDomains {
        let mut domain_hosts: FastMap<DomainSym, BTreeSet<HostId>> = FastMap::default();
        for c in contacts {
            domain_hosts.entry(c.domain).or_default().insert(c.host);
        }
        self.extract_with_hosts(domain_hosts, history)
    }

    /// Like [`RareSieve::extract`], but reuses a per-domain host map the
    /// caller already built (the streaming path computes one incrementally
    /// and would otherwise pay a second full pass over the day's contacts).
    pub fn extract_with_hosts(
        &self,
        domain_hosts: FastMap<DomainSym, BTreeSet<HostId>>,
        history: &DomainHistory,
    ) -> RareDomains {
        let mut rare = FastSet::default();
        let mut new_count = 0;
        for (&domain, hosts) in &domain_hosts {
            if history.is_new(domain) {
                new_count += 1;
                if hosts.len() < self.unpopular_threshold {
                    rare.insert(domain);
                }
            }
        }
        RareDomains { rare, new_count, domain_hosts }
    }
}

impl Default for RareSieve {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{DomainInterner, Timestamp};

    fn contact(domain: DomainSym, host: u32) -> Contact {
        Contact {
            ts: Timestamp::from_secs(0),
            host: HostId::new(host),
            domain,
            dest_ip: None,
            http: None,
        }
    }

    #[test]
    fn new_and_unpopular_is_rare() {
        let domains = DomainInterner::new();
        let fresh = domains.intern("fresh.info");
        let history = DomainHistory::new();
        let sieve = RareSieve::new(10);
        let rare = sieve.extract(&[contact(fresh, 1)], &history);
        assert!(rare.contains(fresh));
        assert_eq!(rare.new_count(), 1);
    }

    #[test]
    fn known_domain_is_not_rare() {
        let domains = DomainInterner::new();
        let known = domains.intern("nbc.com");
        let mut history = DomainHistory::new();
        history.update_domains([known]);
        let sieve = RareSieve::new(10);
        let rare = sieve.extract(&[contact(known, 1)], &history);
        assert!(!rare.contains(known));
        assert_eq!(rare.new_count(), 0);
        // ... but its host set is still tracked for connectivity features.
        assert_eq!(rare.hosts_of(known).unwrap().len(), 1);
    }

    #[test]
    fn popular_new_domain_is_not_rare() {
        let domains = DomainInterner::new();
        let viral = domains.intern("viral.new");
        let history = DomainHistory::new();
        let sieve = RareSieve::new(3);
        let contacts: Vec<Contact> = (0..5).map(|h| contact(viral, h)).collect();
        let rare = sieve.extract(&contacts, &history);
        assert!(!rare.contains(viral), "5 hosts >= threshold 3");
        assert_eq!(rare.new_count(), 1, "still counted as new");
    }

    #[test]
    fn threshold_is_strictly_less_than() {
        let domains = DomainInterner::new();
        let d = domains.intern("edge.case");
        let history = DomainHistory::new();
        let contacts: Vec<Contact> = (0..10).map(|h| contact(d, h)).collect();
        assert!(
            !RareSieve::new(10).extract(&contacts, &history).contains(d),
            "exactly 10 hosts is not rare"
        );
        assert!(RareSieve::new(11).extract(&contacts, &history).contains(d));
    }

    #[test]
    fn duplicate_contacts_count_hosts_once() {
        let domains = DomainInterner::new();
        let d = domains.intern("dup.com");
        let history = DomainHistory::new();
        let contacts = vec![contact(d, 1), contact(d, 1), contact(d, 1)];
        let rare = RareSieve::new(2).extract(&contacts, &history);
        assert!(rare.contains(d));
        assert_eq!(rare.hosts_of(d).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = RareSieve::new(0);
    }
}
