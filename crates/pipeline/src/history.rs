//! Incrementally updated profiles of normal activity (§III-E "Profiling"):
//! the history of external destinations visited by internal hosts, and the
//! history of user-agent strings and the hosts using them.
//!
//! Both histories are "initialized during a bootstrapping period (e.g., one
//! month), and then updated incrementally daily".

use crate::contact::Contact;
use earlybird_logmodel::{DomainSym, FastMap, FastSet, HostId, UaSym};
use serde::{Deserialize, Serialize};

/// History of folded external destinations ever contacted by internal hosts.
///
/// Alongside the membership set, the history keeps its insertion order:
/// appending is the only mutation, so checkpointing can persist just the
/// tail added since the last snapshot (O(day), not O(history)) and restore
/// from the log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DomainHistory {
    seen: FastSet<DomainSym>,
    /// Domains in first-seen order; `seen` is exactly this set.
    order: Vec<DomainSym>,
    days_ingested: u32,
}

impl DomainHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `domain` has never been seen in any ingested day.
    pub fn is_new(&self, domain: DomainSym) -> bool {
        !self.seen.contains(&domain)
    }

    /// Ingests one day of contacts: every contacted domain becomes known.
    /// ("updated at the end of each day to include all new domains from that
    /// day", §IV-A.)
    pub fn update<'a>(&mut self, contacts: impl IntoIterator<Item = &'a Contact>) {
        self.update_domains(contacts.into_iter().map(|c| c.domain));
    }

    /// Ingests a pre-computed domain set (equivalent to [`Self::update`]).
    pub fn update_domains(&mut self, domains: impl IntoIterator<Item = DomainSym>) {
        for domain in domains {
            if self.seen.insert(domain) {
                self.order.push(domain);
            }
        }
        self.days_ingested += 1;
    }

    /// The known domains in first-seen order — the persistence hook used by
    /// `earlybird-store` (a checkpoint records `ordered()[watermark..]`).
    pub fn ordered(&self) -> &[DomainSym] {
        &self.order
    }

    /// A history restored from its insertion log and absolute ingested-day
    /// counter (restoring is not itself an ingested day). The log becomes
    /// the history's own, so it is never held twice. `None` if the log
    /// repeats a domain.
    pub fn from_log(order: Vec<DomainSym>, days_ingested: u32) -> Option<Self> {
        let mut seen = FastSet::with_capacity_and_hasher(order.len(), Default::default());
        if !order.iter().all(|&domain| seen.insert(domain)) {
            return None;
        }
        Some(DomainHistory { seen, order, days_ingested })
    }

    /// Number of distinct domains ever seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Number of days ingested so far.
    pub fn days_ingested(&self) -> u32 {
        self.days_ingested
    }
}

/// History of user-agent strings and the set of hosts using each.
///
/// "An UA is considered rare (after the training period of one month) if it
/// is used by less than a threshold of hosts (set at 10 based on SOC
/// recommendation)" (§IV-C).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UaHistory {
    hosts_by_ua: FastMap<UaSym, FastSet<HostId>>,
    /// First sighting of each `(user agent, host)` pair, in insertion
    /// order; `hosts_by_ua` is exactly this log folded into sets. Kept so
    /// checkpoints can persist just the tail added since the last snapshot.
    pair_log: Vec<(UaSym, HostId)>,
    rare_threshold: usize,
}

impl UaHistory {
    /// Creates an empty history with the given rare-UA host threshold.
    ///
    /// # Panics
    ///
    /// Panics if `rare_threshold` is zero.
    pub fn new(rare_threshold: usize) -> Self {
        assert!(rare_threshold > 0, "rare threshold must be positive");
        UaHistory { hosts_by_ua: FastMap::default(), pair_log: Vec::new(), rare_threshold }
    }

    /// The paper's threshold of 10 hosts.
    pub fn paper_default() -> Self {
        UaHistory::new(10)
    }

    /// Ingests one day of contacts, recording which hosts used which UAs.
    pub fn update<'a>(&mut self, contacts: impl IntoIterator<Item = &'a Contact>) {
        self.update_pairs(contacts.into_iter().filter_map(|c| {
            let http = c.http.as_ref()?;
            Some((http.ua?, c.host))
        }));
    }

    /// Ingests pre-extracted `(user agent, host)` observations — the
    /// streaming path accumulates these per chunk and applies them at day
    /// end, after the day's index was classified against the pre-update
    /// history.
    pub fn update_pairs(&mut self, pairs: impl IntoIterator<Item = (UaSym, HostId)>) {
        for (ua, host) in pairs {
            if self.hosts_by_ua.entry(ua).or_default().insert(host) {
                self.pair_log.push((ua, host));
            }
        }
    }

    /// A history restored from its pair log. The log becomes the history's
    /// own, so it is never held twice. `None` if the log repeats a pair.
    ///
    /// # Panics
    ///
    /// Panics if `rare_threshold` is zero.
    pub fn from_log(rare_threshold: usize, pair_log: Vec<(UaSym, HostId)>) -> Option<Self> {
        let mut history = UaHistory::new(rare_threshold);
        for &(ua, host) in &pair_log {
            if !history.hosts_by_ua.entry(ua).or_default().insert(host) {
                return None;
            }
        }
        history.pair_log = pair_log;
        Some(history)
    }

    /// First sightings of `(user agent, host)` pairs in insertion order —
    /// the persistence hook used by `earlybird-store` (a checkpoint records
    /// `pair_log()[watermark..]`; a restore rebuilds the history from the
    /// whole log through [`UaHistory::from_log`]).
    pub fn pair_log(&self) -> &[(UaSym, HostId)] {
        &self.pair_log
    }

    /// Whether `ua` is rare: used by fewer than the threshold of distinct
    /// hosts across the ingested history. Unknown UAs are rare.
    pub fn is_rare(&self, ua: UaSym) -> bool {
        self.hosts_by_ua.get(&ua).is_none_or(|hosts| hosts.len() < self.rare_threshold)
    }

    /// Number of distinct hosts that have used `ua`.
    pub fn host_count(&self, ua: UaSym) -> usize {
        self.hosts_by_ua.get(&ua).map_or(0, FastSet::len)
    }

    /// Number of distinct UAs observed.
    pub fn len(&self) -> usize {
        self.hosts_by_ua.len()
    }

    /// Whether no UAs were observed.
    pub fn is_empty(&self) -> bool {
        self.hosts_by_ua.is_empty()
    }

    /// The rare-UA host threshold.
    pub fn rare_threshold(&self) -> usize {
        self.rare_threshold
    }
}

impl Default for UaHistory {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::HttpContext;
    use earlybird_logmodel::{DomainInterner, Timestamp, UaInterner};

    fn contact(domain: DomainSym, host: u32, ua: Option<UaSym>) -> Contact {
        Contact {
            ts: Timestamp::from_secs(0),
            host: HostId::new(host),
            domain,
            dest_ip: None,
            http: ua.map(|u| HttpContext { ua: Some(u), referer_present: true }),
        }
    }

    #[test]
    fn new_domains_become_known_after_update() {
        let domains = DomainInterner::new();
        let a = domains.intern("a.com");
        let b = domains.intern("b.com");
        let mut h = DomainHistory::new();
        assert!(h.is_new(a));
        h.update(&[contact(a, 1, None)]);
        assert!(!h.is_new(a));
        assert!(h.is_new(b));
        assert_eq!(h.days_ingested(), 1);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_domains_is_equivalent() {
        let domains = DomainInterner::new();
        let a = domains.intern("a.com");
        let mut h = DomainHistory::new();
        h.update_domains([a]);
        assert!(!h.is_new(a));
    }

    #[test]
    fn ua_rarity_depends_on_host_population() {
        let domains = DomainInterner::new();
        let uas = UaInterner::new();
        let d = domains.intern("x.com");
        let common = uas.intern("Mozilla/5.0");
        let odd = uas.intern("EvilBot/1.0");
        let mut h = UaHistory::new(3);
        for host in 0..5 {
            h.update(&[contact(d, host, Some(common))]);
        }
        h.update(&[contact(d, 0, Some(odd))]);
        assert!(!h.is_rare(common));
        assert!(h.is_rare(odd));
        assert_eq!(h.host_count(common), 5);
        assert_eq!(h.host_count(odd), 1);
    }

    #[test]
    fn unknown_ua_is_rare() {
        let uas = UaInterner::new();
        let h = UaHistory::paper_default();
        assert!(h.is_rare(uas.intern("NeverSeen/0.1")));
        assert_eq!(h.rare_threshold(), 10);
    }

    #[test]
    fn same_host_repeated_counts_once() {
        let domains = DomainInterner::new();
        let uas = UaInterner::new();
        let d = domains.intern("x.com");
        let ua = uas.intern("Agent/2");
        let mut h = UaHistory::new(2);
        for _ in 0..10 {
            h.update(&[contact(d, 7, Some(ua))]);
        }
        assert_eq!(h.host_count(ua), 1);
        assert!(h.is_rare(ua));
    }

    #[test]
    fn dns_contacts_do_not_touch_ua_history() {
        let domains = DomainInterner::new();
        let d = domains.intern("x.com");
        let mut h = UaHistory::paper_default();
        h.update(&[contact(d, 1, None)]);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = UaHistory::new(0);
    }
}
