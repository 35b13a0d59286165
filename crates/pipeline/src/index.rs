//! The per-day index over reduced contacts: the bipartite host↔domain view,
//! per-edge timestamp series for beacon detection, per-domain destination
//! IPs for the proximity features, and per-domain HTTP statistics for the
//! `NoRef` / `RareUA` features.
//!
//! This materializes the `dom_host` and `host_rdom` maps of Algorithm 1 plus
//! every per-day lookup the C&C detector and domain-similarity scorer need.
//!
//! A sealed day is immutable, so [`DayIndex`] *is* its sorted plain-data
//! form: every collection is a sorted key column with a flat value column
//! ([`Grouped`]) or a key-sorted pair list, looked up by binary search.
//! That is also the order `earlybird-store` writes a day in, so a checkpoint
//! is pure emission and a restore decodes each column straight into place —
//! one in-memory representation behind one checked constructor,
//! [`DayIndex::from_columns`], which [`DayIndexBuilder::finalize`] feeds
//! after sorting a live day once and the store feeds as decoded.

use crate::contact::Contact;
use crate::history::{DomainHistory, UaHistory};
use crate::rare::RareDomains;
use earlybird_logmodel::{Day, DomainSym, FastMap, FastSet, HostId, Ipv4, Timestamp};

/// A host→domain edge key.
pub type EdgeKey = (HostId, DomainSym);

/// HTTP statistics of one rare-domain edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeHttp {
    /// Connections over the edge.
    pub connections: u32,
    /// Connections that carried a Referer header.
    pub with_referer: u32,
    /// Connections that used a historically common user agent.
    pub with_common_ua: u32,
    /// Whether any connection carried HTTP context at all.
    pub saw_http: bool,
}

impl EdgeHttp {
    fn observe(&mut self, contact: &Contact, ua_history: Option<&UaHistory>) {
        self.connections += 1;
        if let Some(http) = &contact.http {
            self.saw_http = true;
            if http.referer_present {
                self.with_referer += 1;
            }
            let common_ua = match (http.ua, ua_history) {
                (Some(ua), Some(hist)) => !hist.is_rare(ua),
                (Some(_), None) => true, // no history: assume common
                (None, _) => false,      // missing UA counts as rare
            };
            if common_ua {
                self.with_common_ua += 1;
            }
        }
    }
}

/// Keys in ascending order, each owning one contiguous run of a flat value
/// column (the compressed-sparse-row layout): two allocations per
/// collection instead of one per key, and a lookup is a binary search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grouped<K, V> {
    keys: Vec<K>,
    /// `starts[i]` is where `keys[i]`'s run begins in `values`; it ends
    /// where the next key's begins (or at the end of the column).
    starts: Vec<usize>,
    values: Vec<V>,
}

impl<K: Ord + Copy, V> Grouped<K, V> {
    /// An empty collection with room for `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        Grouped {
            keys: Vec::with_capacity(keys),
            starts: Vec::with_capacity(keys),
            values: Vec::new(),
        }
    }

    /// Opens the next key's (initially empty) run. Keys must be pushed in
    /// strictly ascending order for lookups to work; [`DayIndex::from_columns`]
    /// verifies that.
    pub fn begin_group(&mut self, key: K) {
        self.keys.push(key);
        self.starts.push(self.values.len());
    }

    /// Appends `value` to the run of the key opened last.
    pub fn push(&mut self, value: V) {
        debug_assert!(!self.keys.is_empty(), "push before begin_group");
        self.values.push(value);
    }

    /// Sorts distinct `(key, value)` pairs and groups them by key.
    fn from_pairs(mut pairs: Vec<(K, V)>) -> Self
    where
        V: Ord,
    {
        pairs.sort_unstable();
        let mut out = Grouped::with_capacity(0);
        out.values.reserve_exact(pairs.len());
        for (key, value) in pairs {
            if out.keys.last() != Some(&key) {
                out.begin_group(key);
            }
            out.values.push(value);
        }
        out
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    fn run(&self, i: usize) -> &[V] {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.values.len());
        &self.values[self.starts[i]..end]
    }

    /// The values of `key`, if present.
    pub fn get(&self, key: K) -> Option<&[V]> {
        self.keys.binary_search(&key).ok().map(|i| self.run(i))
    }

    /// Every `(key, values)` group in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &[V])> + '_ {
        self.keys.iter().enumerate().map(|(i, &k)| (k, self.run(i)))
    }

    /// Whether the keys ascend strictly and every run satisfies `run_ok`.
    fn is_sorted_with(&self, run_ok: impl Fn(&[V]) -> bool) -> bool {
        strictly_ascending(&self.keys) && (0..self.keys.len()).all(|i| run_ok(self.run(i)))
    }
}

fn strictly_ascending<T: Ord>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

fn keys_ascend<K: Ord, V>(pairs: &[(K, V)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

fn lookup<K: Ord + Copy, V>(pairs: &[(K, V)], key: K) -> Option<&V> {
    pairs.binary_search_by_key(&key, |&(k, _)| k).ok().map(|i| &pairs[i].1)
}

/// A column handed to [`DayIndex::from_columns`] was not in the order the
/// index's binary searches rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsortedColumn(pub &'static str);

impl std::fmt::Display for UnsortedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "day index column `{}` is unsorted or repeats a key", self.0)
    }
}

impl std::error::Error for UnsortedColumn {}

/// Immutable per-day index over one day of reduced [`Contact`]s, held as
/// sorted columns (see the module docs).
#[derive(Debug, PartialEq, Eq)]
pub struct DayIndex {
    day: Day,
    new_count: usize,
    http_available: bool,
    rare: Vec<DomainSym>,
    domain_hosts: Grouped<DomainSym, HostId>,
    /// Ascending connection timestamps per rare-domain edge.
    edge_series: Grouped<EdgeKey, Timestamp>,
    /// The domain half of `edge_series`' keys. Those keys sort by
    /// `(host, domain)`, so one host's rare domains (Algorithm 1's
    /// `host_rdom`) are a contiguous run of this column.
    edge_domains: Vec<DomainSym>,
    /// First contact per edge, for **all** domains (timing correlation must
    /// reach seed domains that are not rare).
    first_contact: Vec<(EdgeKey, Timestamp)>,
    /// Destination IPs per domain, for all domains with known addresses.
    domain_ips: Grouped<DomainSym, Ipv4>,
    /// HTTP statistics per rare-domain edge.
    edge_http: Vec<(EdgeKey, EdgeHttp)>,
}

impl DayIndex {
    /// Builds the index for `day` from reduced contacts (any order) and the
    /// day's rare set, which must have been extracted from the same
    /// contacts. `ua_history` classifies user agents as common or rare;
    /// pass `None` for DNS datasets.
    pub fn build(
        day: Day,
        contacts: &[Contact],
        rare: RareDomains,
        ua_history: Option<&UaHistory>,
    ) -> Self {
        // The threshold is unused: rarity was decided by the caller's sieve.
        let mut builder = DayIndexBuilder::new(day, usize::MAX);
        builder.observe(contacts, ua_history, |d| rare.contains(d));
        let domain_hosts = builder.domain_hosts();
        builder.seal(domain_hosts, rare.iter().collect(), rare.new_count())
    }

    /// The one constructor: takes ownership of already sorted columns.
    /// [`DayIndexBuilder`] seals a live day through it, and
    /// `earlybird-store` decodes a restored day's columns straight into the
    /// `Vec`s handed over here. `rare`, every key column and the per-domain
    /// host/IP runs must ascend strictly; each edge series must be
    /// non-decreasing.
    ///
    /// # Errors
    ///
    /// [`UnsortedColumn`] naming the first column that breaks its order;
    /// nothing else about the columns is checked, and the accessors of a
    /// semantically odd index simply reflect it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_columns(
        day: Day,
        new_count: usize,
        rare: Vec<DomainSym>,
        domain_hosts: Grouped<DomainSym, HostId>,
        edge_series: Grouped<EdgeKey, Timestamp>,
        first_contact: Vec<(EdgeKey, Timestamp)>,
        domain_ips: Grouped<DomainSym, Ipv4>,
        edge_http: Vec<(EdgeKey, EdgeHttp)>,
    ) -> Result<Self, UnsortedColumn> {
        let checks = [
            ("rare", strictly_ascending(&rare)),
            ("domain_hosts", domain_hosts.is_sorted_with(strictly_ascending)),
            ("edge_series", edge_series.is_sorted_with(|s| s.windows(2).all(|w| w[0] <= w[1]))),
            ("first_contact", keys_ascend(&first_contact)),
            ("domain_ips", domain_ips.is_sorted_with(strictly_ascending)),
            ("edge_http", keys_ascend(&edge_http)),
        ];
        if let Some(&(column, _)) = checks.iter().find(|(_, ok)| !ok) {
            return Err(UnsortedColumn(column));
        }
        Ok(DayIndex {
            day,
            new_count,
            http_available: edge_http.iter().any(|(_, s)| s.saw_http),
            rare,
            edge_domains: edge_series.keys().iter().map(|&(_, d)| d).collect(),
            domain_hosts,
            edge_series,
            first_contact,
            domain_ips,
            edge_http,
        })
    }

    /// The indexed day.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Every domain contacted today (rare or not), ascending.
    pub fn domains(&self) -> impl Iterator<Item = DomainSym> + '_ {
        self.domain_hosts.keys().iter().copied()
    }

    /// Whether the underlying dataset carried HTTP context.
    pub fn has_http(&self) -> bool {
        self.http_available
    }

    /// Whether `domain` is rare today.
    pub fn is_rare(&self, domain: DomainSym) -> bool {
        self.rare.binary_search(&domain).is_ok()
    }

    /// The day's rare domains, ascending.
    pub fn rare_domains(&self) -> impl Iterator<Item = DomainSym> + '_ {
        self.rare.iter().copied()
    }

    /// Number of rare domains today.
    pub fn rare_count(&self) -> usize {
        self.rare.len()
    }

    /// Number of *new* domains today (pre-unpopularity filter, Fig. 2).
    pub fn new_count(&self) -> usize {
        self.new_count
    }

    /// Distinct hosts contacting `domain` today, ascending.
    pub fn hosts_of(&self, domain: DomainSym) -> Option<&[HostId]> {
        self.domain_hosts.get(domain)
    }

    /// Number of distinct hosts contacting `domain` (the `NoHosts` feature).
    pub fn connectivity(&self, domain: DomainSym) -> usize {
        self.hosts_of(domain).map_or(0, <[HostId]>::len)
    }

    /// The rare domains `host` visited today (Algorithm 1's `host_rdom`),
    /// ascending.
    pub fn rare_domains_of(&self, host: HostId) -> Option<&[DomainSym]> {
        let keys = self.edge_series.keys();
        let lo = keys.partition_point(|&(h, _)| h < host);
        let hi = lo + keys[lo..].partition_point(|&(h, _)| h == host);
        (lo < hi).then(|| &self.edge_domains[lo..hi])
    }

    /// Sorted connection timestamps from `host` to rare `domain`.
    pub fn beacon_series(&self, host: HostId, domain: DomainSym) -> Option<&[Timestamp]> {
        self.edge_series.get((host, domain))
    }

    /// First contact time from `host` to `domain` (any domain).
    pub fn first_contact(&self, host: HostId, domain: DomainSym) -> Option<Timestamp> {
        lookup(&self.first_contact, (host, domain)).copied()
    }

    /// Destination IPs observed for `domain`, ascending.
    pub fn ips_of(&self, domain: DomainSym) -> Option<&[Ipv4]> {
        self.domain_ips.get(domain)
    }

    /// Fraction of hosts contacting rare `domain` that never sent a Referer
    /// to it (the `NoRef` feature). `None` when HTTP context is unavailable
    /// or the domain was not contacted.
    pub fn no_ref_fraction(&self, domain: DomainSym) -> Option<f64> {
        if !self.http_available {
            return None;
        }
        self.host_fraction(domain, |stats| stats.with_referer == 0)
    }

    /// Fraction of hosts contacting rare `domain` that used no or only rare
    /// user agents toward it (the `RareUA` feature). `None` when HTTP
    /// context is unavailable or the domain was not contacted.
    pub fn rare_ua_fraction(&self, domain: DomainSym) -> Option<f64> {
        if !self.http_available {
            return None;
        }
        self.host_fraction(domain, |stats| stats.with_common_ua == 0)
    }

    fn host_fraction(&self, domain: DomainSym, pred: impl Fn(&EdgeHttp) -> bool) -> Option<f64> {
        let hosts = self.hosts_of(domain)?;
        if hosts.is_empty() {
            return None;
        }
        let matching = hosts
            .iter()
            .filter(|&&h| lookup(&self.edge_http, (h, domain)).is_some_and(&pred))
            .count();
        Some(matching as f64 / hosts.len() as f64)
    }

    // -- columns, in the order `earlybird-store` writes them ----------------

    /// Per-domain host sets, by domain.
    pub fn domain_hosts(&self) -> &Grouped<DomainSym, HostId> {
        &self.domain_hosts
    }

    /// Per-rare-edge timestamp series, by edge.
    pub fn edge_series(&self) -> &Grouped<EdgeKey, Timestamp> {
        &self.edge_series
    }

    /// First contact per edge, by edge.
    pub fn first_contacts(&self) -> &[(EdgeKey, Timestamp)] {
        &self.first_contact
    }

    /// Destination IPs per domain, by domain.
    pub fn domain_ips(&self) -> &Grouped<DomainSym, Ipv4> {
        &self.domain_ips
    }

    /// Per-rare-edge HTTP statistics, by edge.
    pub fn edge_http(&self) -> &[(EdgeKey, EdgeHttp)] {
        &self.edge_http
    }
}

/// Incremental constructor of a [`DayIndex`] from contact chunks that may
/// arrive in any order (parallel reduction workers finish out of sequence).
///
/// Rarity cannot be decided mid-day — a domain is rare only if it stays
/// under the unpopularity threshold across the *whole* day — so the builder
/// tracks per-edge series and HTTP statistics for every domain that is new
/// relative to the (frozen, pre-update) [`DomainHistory`], and
/// [`DayIndexBuilder::finalize`] applies the threshold, prunes domains that
/// turned popular, and sorts everything once into the index's columns.
#[derive(Debug)]
pub struct DayIndexBuilder {
    day: Day,
    unpopular_threshold: usize,
    new_domains: FastSet<DomainSym>,
    /// First contact per edge. Its key set is the day's whole host↔domain
    /// bipartite graph, which is where the per-domain host sets come from.
    first_contact: FastMap<EdgeKey, Timestamp>,
    edge_series: FastMap<EdgeKey, Vec<Timestamp>>,
    domain_ips: FastSet<(DomainSym, Ipv4)>,
    edge_http: FastMap<EdgeKey, EdgeHttp>,
}

impl DayIndexBuilder {
    /// Creates an empty builder for `day` with the rare-destination
    /// unpopularity threshold (10 hosts in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is zero.
    pub fn new(day: Day, unpopular_threshold: usize) -> Self {
        assert!(unpopular_threshold > 0, "threshold must be positive");
        DayIndexBuilder {
            day,
            unpopular_threshold,
            new_domains: FastSet::default(),
            first_contact: FastMap::default(),
            edge_series: FastMap::default(),
            domain_ips: FastSet::default(),
            edge_http: FastMap::default(),
        }
    }

    /// Absorbs one chunk of reduced contacts (any order). `history` must be
    /// the day's *pre-update* domain history — the streaming pipeline defers
    /// history updates to day end, so the snapshot is stable across chunks.
    /// `ua_history` classifies user agents (pass `None` for DNS sources).
    pub fn push_contacts(
        &mut self,
        contacts: &[Contact],
        history: &DomainHistory,
        ua_history: Option<&UaHistory>,
    ) {
        self.observe(contacts, ua_history, |d| history.is_new(d));
    }

    /// Absorbs contacts, tracking series and HTTP statistics for every
    /// domain `is_new` accepts.
    fn observe(
        &mut self,
        contacts: &[Contact],
        ua_history: Option<&UaHistory>,
        is_new: impl Fn(DomainSym) -> bool,
    ) {
        for c in contacts {
            let edge = (c.host, c.domain);
            self.first_contact.entry(edge).and_modify(|ts| *ts = (*ts).min(c.ts)).or_insert(c.ts);
            if let Some(ip) = c.dest_ip {
                self.domain_ips.insert((c.domain, ip));
            }
            let tracked = self.new_domains.contains(&c.domain)
                || (is_new(c.domain) && self.new_domains.insert(c.domain));
            if tracked {
                self.edge_series.entry(edge).or_default().push(c.ts);
                self.edge_http.entry(edge).or_default().observe(c, ua_history);
            }
        }
    }

    /// Applies the unpopularity threshold and seals the day into the
    /// immutable [`DayIndex`].
    pub fn finalize(self) -> DayIndex {
        let domain_hosts = self.domain_hosts();
        let rare: FastSet<DomainSym> = self
            .new_domains
            .iter()
            .copied()
            .filter(|&d| domain_hosts.get(d).is_some_and(|h| h.len() < self.unpopular_threshold))
            .collect();
        let new_count = self.new_domains.len();
        self.seal(domain_hosts, rare, new_count)
    }

    /// The day's hosts per domain: the edge set, transposed.
    fn domain_hosts(&self) -> Grouped<DomainSym, HostId> {
        Grouped::from_pairs(self.first_contact.keys().map(|&(h, d)| (d, h)).collect())
    }

    /// The one place a day is sorted: prunes the series and HTTP statistics
    /// of tracked domains that turned out popular, orders every edge's
    /// timestamps (chunks arrive out of order, and every beacon-period
    /// estimator relies on ascending series), and lays each map out as a
    /// key-sorted column.
    fn seal(
        self,
        domain_hosts: Grouped<DomainSym, HostId>,
        rare: FastSet<DomainSym>,
        new_count: usize,
    ) -> DayIndex {
        let is_rare_edge = |&(_, d): &EdgeKey| rare.contains(&d);
        let mut series: Vec<(EdgeKey, Vec<Timestamp>)> =
            self.edge_series.into_iter().filter(|(k, _)| is_rare_edge(k)).collect();
        series.sort_unstable_by_key(|&(k, _)| k);
        let mut edge_series = Grouped::with_capacity(series.len());
        for (edge, mut timestamps) in series {
            timestamps.sort_unstable();
            edge_series.begin_group(edge);
            edge_series.values.extend(timestamps);
        }
        let mut first_contact: Vec<(EdgeKey, Timestamp)> = self.first_contact.into_iter().collect();
        first_contact.sort_unstable_by_key(|&(k, _)| k);
        let mut edge_http: Vec<(EdgeKey, EdgeHttp)> =
            self.edge_http.into_iter().filter(|(k, _)| is_rare_edge(k)).collect();
        edge_http.sort_unstable_by_key(|&(k, _)| k);
        let mut rare: Vec<DomainSym> = rare.iter().copied().collect();
        rare.sort_unstable();
        DayIndex::from_columns(
            self.day,
            new_count,
            rare,
            domain_hosts,
            edge_series,
            first_contact,
            Grouped::from_pairs(self.domain_ips.into_iter().collect()),
            edge_http,
        )
        .expect("every column was sorted just above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::HttpContext;
    use crate::history::DomainHistory;
    use crate::rare::RareSieve;
    use earlybird_logmodel::{DomainInterner, UaInterner};

    struct Fixture {
        domains: DomainInterner,
        uas: UaInterner,
        contacts: Vec<Contact>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture { domains: DomainInterner::new(), uas: UaInterner::new(), contacts: Vec::new() }
        }

        fn push(
            &mut self,
            ts: u64,
            host: u32,
            domain: &str,
            ip: Option<Ipv4>,
            http: Option<HttpContext>,
        ) {
            self.contacts.push(Contact {
                ts: Timestamp::from_secs(ts),
                host: HostId::new(host),
                domain: self.domains.intern(domain),
                dest_ip: ip,
                http,
            });
        }

        fn index(&mut self, ua_history: Option<&UaHistory>) -> DayIndex {
            self.contacts.sort_by_key(|c| c.ts);
            let rare = RareSieve::new(10).extract(&self.contacts, &DomainHistory::new());
            DayIndex::build(Day::new(0), &self.contacts, rare, ua_history)
        }
    }

    #[test]
    fn bipartite_maps_are_consistent() {
        let mut f = Fixture::new();
        f.push(10, 1, "a.com", None, None);
        f.push(20, 1, "b.com", None, None);
        f.push(30, 2, "a.com", None, None);
        let idx = f.index(None);
        let a = f.domains.get("a.com").unwrap();
        let b = f.domains.get("b.com").unwrap();
        assert_eq!(idx.connectivity(a), 2);
        assert_eq!(idx.connectivity(b), 1);
        assert_eq!(idx.rare_domains_of(HostId::new(1)).unwrap().len(), 2);
        assert!(idx.rare_domains_of(HostId::new(1)).unwrap().contains(&a));
        assert_eq!(idx.rare_count(), 2);
        assert_eq!(idx.edge_series().len(), 3);
    }

    #[test]
    fn beacon_series_is_sorted_per_edge() {
        let mut f = Fixture::new();
        for i in 0..5 {
            f.push(i * 600, 1, "cc.ru", None, None);
        }
        f.push(42, 2, "cc.ru", None, None);
        let idx = f.index(None);
        let cc = f.domains.get("cc.ru").unwrap();
        let series = idx.beacon_series(HostId::new(1), cc).unwrap();
        assert_eq!(series.len(), 5);
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(idx.first_contact(HostId::new(1), cc), Some(Timestamp::from_secs(0)));
        assert_eq!(idx.first_contact(HostId::new(2), cc), Some(Timestamp::from_secs(42)));
    }

    #[test]
    fn domain_ips_accumulate() {
        let mut f = Fixture::new();
        f.push(1, 1, "multi.net", Some(Ipv4::new(5, 5, 5, 1)), None);
        f.push(2, 1, "multi.net", Some(Ipv4::new(5, 5, 5, 2)), None);
        f.push(3, 1, "noip.net", None, None);
        let idx = f.index(None);
        let m = f.domains.get("multi.net").unwrap();
        assert_eq!(idx.ips_of(m).unwrap().len(), 2);
        assert!(idx.ips_of(f.domains.get("noip.net").unwrap()).is_none());
    }

    #[test]
    fn http_fractions_require_http_data() {
        let mut f = Fixture::new();
        f.push(1, 1, "a.com", None, None);
        let idx = f.index(None);
        let a = f.domains.get("a.com").unwrap();
        assert!(!idx.has_http());
        assert_eq!(idx.no_ref_fraction(a), None);
        assert_eq!(idx.rare_ua_fraction(a), None);
    }

    #[test]
    fn no_ref_fraction_counts_hosts_without_any_referer() {
        let mut f = Fixture::new();
        // host 1: never a referer; host 2: one of two connections has one.
        f.push(1, 1, "x.io", None, Some(HttpContext { ua: None, referer_present: false }));
        f.push(2, 2, "x.io", None, Some(HttpContext { ua: None, referer_present: false }));
        f.push(3, 2, "x.io", None, Some(HttpContext { ua: None, referer_present: true }));
        let idx = f.index(None);
        let x = f.domains.get("x.io").unwrap();
        assert_eq!(idx.no_ref_fraction(x), Some(0.5));
    }

    #[test]
    fn rare_ua_fraction_uses_history() {
        let mut f = Fixture::new();
        let common = f.uas.intern("Mozilla/5.0");
        let weird = f.uas.intern("Backdoor/1.0");
        // Build a history where `common` is popular and `weird` is not.
        let mut hist = UaHistory::new(3);
        {
            let d = f.domains.intern("warmup.com");
            let mk = |host: u32, ua| Contact {
                ts: Timestamp::from_secs(0),
                host: HostId::new(host),
                domain: d,
                dest_ip: None,
                http: Some(HttpContext { ua: Some(ua), referer_present: true }),
            };
            let warm: Vec<Contact> = (0..5).map(|h| mk(h, common)).collect();
            hist.update(&warm);
        }
        // host 1 uses the rare UA, host 2 the common one, host 3 none at all.
        f.push(1, 1, "x.io", None, Some(HttpContext { ua: Some(weird), referer_present: false }));
        f.push(2, 2, "x.io", None, Some(HttpContext { ua: Some(common), referer_present: false }));
        f.push(3, 3, "x.io", None, Some(HttpContext { ua: None, referer_present: false }));
        let idx = f.index(Some(&hist));
        let x = f.domains.get("x.io").unwrap();
        let frac = idx.rare_ua_fraction(x).unwrap();
        assert!((frac - 2.0 / 3.0).abs() < 1e-12, "hosts 1 and 3 are rare-UA: {frac}");
    }

    /// Builds the same fixture through both constructors and checks every
    /// public accessor agrees.
    fn assert_builder_matches_batch(contacts: &mut [Contact], ua_history: Option<&UaHistory>) {
        let history = DomainHistory::new();
        let threshold = 10;

        let mut sorted = contacts.to_vec();
        sorted.sort_by_key(|c| c.ts);
        let rare = RareSieve::new(threshold).extract(&sorted, &history);
        let batch = DayIndex::build(Day::new(0), &sorted, rare, ua_history);

        // Push in reversed, unevenly chunked order to exercise
        // sort-on-finalize.
        let mut builder = DayIndexBuilder::new(Day::new(0), threshold);
        contacts.reverse();
        for chunk in contacts.chunks(3) {
            builder.push_contacts(chunk, &history, ua_history);
        }
        let streamed = builder.finalize();

        assert_eq!(streamed.new_count(), batch.new_count());
        assert_eq!(streamed.rare_count(), batch.rare_count());
        assert_eq!(streamed.has_http(), batch.has_http());
        assert_eq!(streamed.edge_series().len(), batch.edge_series().len());
        let mut batch_domains: Vec<DomainSym> = batch.domains().collect();
        let mut streamed_domains: Vec<DomainSym> = streamed.domains().collect();
        batch_domains.sort_unstable();
        streamed_domains.sort_unstable();
        assert_eq!(streamed_domains, batch_domains);
        for d in batch_domains {
            assert_eq!(streamed.is_rare(d), batch.is_rare(d));
            assert_eq!(streamed.hosts_of(d), batch.hosts_of(d));
            assert_eq!(streamed.ips_of(d), batch.ips_of(d));
            assert_eq!(streamed.no_ref_fraction(d), batch.no_ref_fraction(d));
            assert_eq!(streamed.rare_ua_fraction(d), batch.rare_ua_fraction(d));
            for &h in batch.hosts_of(d).unwrap() {
                assert_eq!(streamed.first_contact(h, d), batch.first_contact(h, d));
                assert_eq!(streamed.beacon_series(h, d), batch.beacon_series(h, d));
                assert_eq!(streamed.rare_domains_of(h), batch.rare_domains_of(h));
            }
        }
        assert_eq!(streamed, batch, "every column agrees, not just the accessors probed above");
    }

    #[test]
    fn builder_matches_batch_index_on_out_of_order_chunks() {
        let mut f = Fixture::new();
        // A beaconing rare edge, a popular-new domain (pruned at finalize),
        // a second host sharing the rare domain, and an IP-carrying domain.
        for i in 0..6 {
            f.push(i * 600 + 17, 1, "cc.ru", Some(Ipv4::new(9, 9, 9, 9)), None);
        }
        f.push(42, 2, "cc.ru", None, None);
        for h in 0..12 {
            f.push(h as u64 * 7, h, "viral.new", None, None);
        }
        f.push(5, 3, "multi.net", Some(Ipv4::new(5, 5, 5, 1)), None);
        f.push(6, 3, "multi.net", Some(Ipv4::new(5, 5, 5, 2)), None);
        assert_builder_matches_batch(&mut f.contacts, None);
    }

    #[test]
    fn builder_matches_batch_index_with_http_context() {
        let mut f = Fixture::new();
        let common = f.uas.intern("Mozilla/5.0");
        let weird = f.uas.intern("Backdoor/1.0");
        let mut hist = UaHistory::new(3);
        {
            let d = f.domains.intern("warmup.com");
            let warm: Vec<Contact> = (0..5)
                .map(|h| Contact {
                    ts: Timestamp::from_secs(0),
                    host: HostId::new(h),
                    domain: d,
                    dest_ip: None,
                    http: Some(HttpContext { ua: Some(common), referer_present: true }),
                })
                .collect();
            hist.update(&warm);
        }
        f.push(1, 1, "x.io", None, Some(HttpContext { ua: Some(weird), referer_present: false }));
        f.push(2, 2, "x.io", None, Some(HttpContext { ua: Some(common), referer_present: true }));
        f.push(3, 3, "x.io", None, Some(HttpContext { ua: None, referer_present: false }));
        f.push(4, 1, "y.io", None, Some(HttpContext { ua: Some(common), referer_present: false }));
        assert_builder_matches_batch(&mut f.contacts, Some(&hist));
    }

    #[test]
    fn builder_matches_batch_index_on_an_empty_day() {
        assert_builder_matches_batch(&mut [], None);
        let empty = DayIndexBuilder::new(Day::new(3), 10).finalize();
        assert_eq!(empty.day(), Day::new(3));
        assert_eq!((empty.rare_count(), empty.new_count(), empty.edge_series().len()), (0, 0, 0));
        assert!(empty.rare_domains_of(HostId::new(0)).is_none());
    }

    #[test]
    fn rare_domains_of_is_the_hosts_run_of_the_edge_keys() {
        let mut f = Fixture::new();
        f.push(1, 2, "b.com", None, None);
        f.push(2, 1, "c.com", None, None);
        f.push(3, 2, "a.com", None, None);
        f.push(4, 7, "a.com", None, None);
        let idx = f.index(None);
        let sym = |n: &str| f.domains.get(n).unwrap();
        let mut of_two = [sym("a.com"), sym("b.com")];
        of_two.sort_unstable();
        assert_eq!(idx.rare_domains_of(HostId::new(2)), Some(&of_two[..]));
        assert_eq!(idx.rare_domains_of(HostId::new(1)), Some(&[sym("c.com")][..]));
        assert_eq!(idx.rare_domains_of(HostId::new(7)), Some(&[sym("a.com")][..]));
        for absent in [0, 3, 8] {
            assert!(idx.rare_domains_of(HostId::new(absent)).is_none());
        }
    }

    #[test]
    fn from_columns_accepts_its_own_columns_and_names_an_unsorted_one() {
        let mut f = Fixture::new();
        f.push(10, 1, "a.com", Some(Ipv4::new(5, 5, 5, 1)), None);
        f.push(20, 2, "a.com", Some(Ipv4::new(5, 5, 5, 2)), None);
        f.push(30, 2, "b.com", None, None);
        let idx = f.index(None);
        let rebuild = |rare: Vec<DomainSym>, first: Vec<(EdgeKey, Timestamp)>| {
            DayIndex::from_columns(
                idx.day(),
                idx.new_count(),
                rare,
                idx.domain_hosts().clone(),
                idx.edge_series().clone(),
                first,
                idx.domain_ips().clone(),
                idx.edge_http().to_vec(),
            )
        };
        let rare: Vec<DomainSym> = idx.rare_domains().collect();
        assert_eq!(rebuild(rare.clone(), idx.first_contacts().to_vec()).as_ref(), Ok(&idx));

        let mut reversed = rare.clone();
        reversed.reverse();
        assert_eq!(rebuild(reversed, idx.first_contacts().to_vec()), Err(UnsortedColumn("rare")));
        let mut repeated = idx.first_contacts().to_vec();
        repeated.push(*repeated.last().unwrap());
        assert_eq!(rebuild(rare, repeated), Err(UnsortedColumn("first_contact")));

        let mut descending = Grouped::with_capacity(1);
        descending.begin_group((HostId::new(1), DomainSym::from_raw(0)));
        descending.push(Timestamp::from_secs(9));
        descending.push(Timestamp::from_secs(3));
        let err = DayIndex::from_columns(
            idx.day(),
            0,
            Vec::new(),
            Grouped::with_capacity(0),
            descending,
            Vec::new(),
            Grouped::with_capacity(0),
            Vec::new(),
        );
        assert_eq!(err, Err(UnsortedColumn("edge_series")));
    }

    #[test]
    fn builder_http_flag_requires_a_rare_http_edge() {
        // HTTP context on a popular-new domain only: the pruned edges must
        // not leave http_available set (the batch path never saw them).
        let mut f = Fixture::new();
        for h in 0..12 {
            f.push(
                h as u64,
                h,
                "viral.new",
                None,
                Some(HttpContext { ua: None, referer_present: true }),
            );
        }
        f.push(99, 1, "plain.dns", None, None);
        let history = DomainHistory::new();
        let mut builder = DayIndexBuilder::new(Day::new(0), 10);
        builder.push_contacts(&f.contacts, &history, None);
        let idx = builder.finalize();
        assert!(!idx.has_http(), "no rare edge carried HTTP context");
        assert!(idx.is_rare(f.domains.get("plain.dns").unwrap()));
    }

    #[test]
    fn first_contact_tracked_for_non_rare_domains_too() {
        let mut f = Fixture::new();
        // popular.com is contacted by 12 hosts -> not rare under threshold 10.
        for h in 0..12 {
            f.push(h as u64, h, "popular.com", None, None);
        }
        let idx = f.index(None);
        let p = f.domains.get("popular.com").unwrap();
        assert!(!idx.is_rare(p));
        assert_eq!(idx.first_contact(HostId::new(3), p), Some(Timestamp::from_secs(3)));
        assert!(idx.beacon_series(HostId::new(3), p).is_none(), "series kept only for rare edges");
    }
}
