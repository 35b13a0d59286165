//! Data reduction (§IV-A): A-record restriction, internal-query and
//! internal-server filtering, folding — with the per-step distinct-domain
//! counters plotted in Fig. 2.
//!
//! Reduction is chunk-oriented so a day never has to be materialized at
//! once: [`reduce_dns_chunk`] / [`reduce_proxy_chunk`] turn any consecutive
//! slice of a day's records into a [`ChunkReduction`] (contacts plus partial
//! counters), and a [`DayReducer`] merges the per-chunk counters into the
//! day totals. Both chunk reducers take `&self` state only (the
//! [`FoldTable`] memo and the [`InternalFilter`] verdict cache are
//! internally synchronized), so disjoint chunks of one day can be reduced on
//! parallel workers.

use crate::contact::{Contact, HttpContext};
use crate::fold::FoldTable;
use earlybird_logmodel::{
    DatasetMeta, DnsQuery, DnsRecordType, DomainInterner, DomainSym, FastSet, HostKind,
    ProxyRecord, Published,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, PoisonError, RwLock};

/// Configuration of the reduction filters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReductionConfig {
    /// Suffixes of internal (enterprise-owned) namespaces; queries to these
    /// are dropped ("we filter out queries for internal LANL resources").
    pub internal_suffixes: Vec<String>,
}

impl ReductionConfig {
    /// Builds the config from dataset metadata.
    pub fn from_meta(meta: &DatasetMeta) -> Self {
        ReductionConfig { internal_suffixes: meta.internal_suffixes.clone() }
    }

    /// Whether `name` falls under an internal suffix (on a label boundary).
    pub fn is_internal(&self, name: &str) -> bool {
        self.internal_suffixes.iter().any(|s| {
            name == s.as_str()
                || (name.len() > s.len()
                    && name.ends_with(s.as_str())
                    && name.as_bytes()[name.len() - s.len() - 1] == b'.')
        })
    }
}

/// Verdict-cache cell values: unknown / classified external / internal.
const UNJUDGED: u8 = 0;
const EXTERNAL: u8 = 1;
const INTERNAL: u8 = 2;

/// The mutable half of the verdict memo, dense over raw symbol ids.
#[derive(Debug, Default)]
struct VerdictCache {
    vec: Vec<u8>,
    filled: usize,
    published: usize,
}

/// Memoized internal-namespace classifier.
///
/// The suffix scan in [`ReductionConfig::is_internal`] is linear in the
/// number of configured suffixes and was previously re-run for every record;
/// enterprise days repeat the same destinations millions of times, so the
/// filter caches the verdict per raw [`DomainSym`] and classifies each
/// distinct domain at most once. Verdicts live in a dense `Vec<u8>` indexed
/// by the raw symbol id, with a read-mostly snapshot republished through a
/// [`Published`] cell: chunk workers take an [`InternalJudge`] handle and
/// classify repeat domains with a plain array load. Misses fall back to the
/// internally synchronized live cache, so the filter remains shareable
/// across parallel chunk-reduction workers. When no internal suffixes are
/// configured every verdict is trivially "external" and the cache is
/// bypassed entirely.
#[derive(Debug)]
pub struct InternalFilter {
    cfg: ReductionConfig,
    trivial: bool,
    live: RwLock<VerdictCache>,
    snap: Published<Vec<u8>>,
}

impl InternalFilter {
    /// Wraps a reduction config with an empty verdict cache.
    pub fn new(cfg: ReductionConfig) -> Self {
        let trivial = cfg.internal_suffixes.is_empty();
        InternalFilter {
            cfg,
            trivial,
            live: RwLock::new(VerdictCache::default()),
            snap: Published::new(Vec::new()),
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ReductionConfig {
        &self.cfg
    }

    /// A per-chunk classification handle over the current verdict snapshot.
    pub fn judge(&self) -> InternalJudge<'_> {
        InternalJudge { filter: self, snap: self.snap.load() }
    }

    /// Whether the raw symbol `raw_sym` names an internal destination;
    /// `names` (the interner that minted it) is consulted on a cache miss,
    /// once per distinct symbol.
    pub fn is_internal_sym(&self, raw_sym: DomainSym, names: &DomainInterner) -> bool {
        if self.trivial {
            return false;
        }
        let idx = raw_sym.raw() as usize;
        {
            let live = self.live.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&v) = live.vec.get(idx) {
                if v != UNJUDGED {
                    return v == INTERNAL;
                }
            }
        }
        let internal = names.with_str(raw_sym, |name| self.cfg.is_internal(name));
        // A holder that panicked left every cell either unjudged or holding
        // its one pure verdict, so the poison flag carries no information.
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        if live.vec.len() <= idx {
            live.vec.resize(idx + 1, UNJUDGED);
        }
        if live.vec[idx] == UNJUDGED {
            live.vec[idx] = if internal { INTERNAL } else { EXTERNAL };
            live.filled += 1;
        }
        if live.filled >= live.published + (live.published / 8).max(64) {
            live.published = live.filled;
            self.snap.publish(Arc::new(live.vec.clone()));
        }
        internal
    }
}

/// A per-chunk handle over an [`InternalFilter`] verdict snapshot.
///
/// Already-classified symbols are answered with a lock-free array load;
/// unknown symbols fall back to the shared filter.
#[derive(Debug)]
pub struct InternalJudge<'f> {
    filter: &'f InternalFilter,
    snap: Arc<Vec<u8>>,
}

impl InternalJudge<'_> {
    /// Whether `raw_sym` names an internal destination, consulting the
    /// pinned snapshot first; `names` supplies the name on a full miss.
    pub fn is_internal(&self, raw_sym: DomainSym, names: &DomainInterner) -> bool {
        if self.filter.trivial {
            return false;
        }
        match self.snap.get(raw_sym.raw() as usize) {
            Some(&v) if v != UNJUDGED => v == INTERNAL,
            _ => self.filter.is_internal_sym(raw_sym, names),
        }
    }
}

/// Distinct-domain counts after each DNS reduction step (the Fig. 2 series;
/// "new" and "rare" are computed downstream by the history and sieve).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsReductionCounts {
    /// Raw records in the day.
    pub records_all: usize,
    /// Records surviving the A-record restriction.
    pub records_a_only: usize,
    /// Distinct folded domains before any filtering ("All").
    pub domains_all: usize,
    /// Distinct folded domains after dropping internal queries.
    pub domains_after_internal_filter: usize,
    /// Distinct folded domains after additionally dropping internal-server
    /// sources.
    pub domains_after_server_filter: usize,
}

/// Distinct-domain counts after each proxy reduction step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyReductionCounts {
    /// Normalized records in the day.
    pub records_all: usize,
    /// Distinct folded domains before filtering.
    pub domains_all: usize,
    /// Distinct folded domains after dropping internal destinations.
    pub domains_after_internal_filter: usize,
    /// Distinct folded domains after additionally dropping server sources.
    pub domains_after_server_filter: usize,
}

/// The output of reducing one chunk of a day: the surviving contacts (in
/// chunk record order, *not* timestamp-sorted) plus the partial counters a
/// [`DayReducer`] merges into day totals.
#[derive(Debug, Default)]
pub struct ChunkReduction {
    /// Contacts surviving every filter, in the chunk's record order.
    pub contacts: Vec<Contact>,
    /// Records in the chunk.
    pub records: usize,
    /// Records surviving the A-record restriction (DNS chunks only).
    pub records_a_only: usize,
    /// Distinct folded domains in the chunk before filtering.
    pub domains_all: FastSet<DomainSym>,
    /// Distinct folded domains after the internal-namespace filter.
    pub domains_after_internal: FastSet<DomainSym>,
    /// Distinct folded domains after additionally dropping server sources.
    pub domains_after_server: FastSet<DomainSym>,
}

/// Reduces one chunk of DNS queries; thread-safe over shared `fold` /
/// `filter` state, so disjoint chunks may run on parallel workers.
pub fn reduce_dns_chunk(
    queries: &[DnsQuery],
    meta: &DatasetMeta,
    fold: &FoldTable,
    filter: &InternalFilter,
) -> ChunkReduction {
    let mut out = ChunkReduction { records: queries.len(), ..ChunkReduction::default() };
    let folder = fold.folder();
    let judge = filter.judge();
    for q in queries {
        let folded = folder.fold(q.qname);
        out.domains_all.insert(folded);
        if q.qtype != DnsRecordType::A {
            continue;
        }
        out.records_a_only += 1;
        if judge.is_internal(q.qname, fold.raw_interner()) {
            continue;
        }
        out.domains_after_internal.insert(folded);
        if meta.kind(q.src) == HostKind::Server {
            continue;
        }
        out.domains_after_server.insert(folded);
        out.contacts.push(Contact {
            ts: q.ts,
            host: q.src,
            domain: folded,
            dest_ip: q.answer,
            http: None,
        });
    }
    out
}

/// Reduces one chunk of *normalized* proxy records (see
/// [`crate::normalize`]); thread-safe like [`reduce_dns_chunk`].
///
/// # Panics
///
/// Panics if a record has no resolved host (normalization must run first).
pub fn reduce_proxy_chunk(
    records: &[ProxyRecord],
    meta: &DatasetMeta,
    fold: &FoldTable,
    filter: &InternalFilter,
) -> ChunkReduction {
    let mut out = ChunkReduction { records: records.len(), ..ChunkReduction::default() };
    let folder = fold.folder();
    let judge = filter.judge();
    for rec in records {
        let host = rec.host.expect("proxy records must be normalized before reduction");
        let folded = folder.fold(rec.domain);
        out.domains_all.insert(folded);
        if judge.is_internal(rec.domain, fold.raw_interner()) {
            continue;
        }
        out.domains_after_internal.insert(folded);
        if meta.kind(host) == HostKind::Server {
            continue;
        }
        out.domains_after_server.insert(folded);
        out.contacts.push(Contact {
            ts: rec.ts_utc(),
            host,
            domain: folded,
            dest_ip: Some(rec.dest_ip),
            http: Some(HttpContext { ua: rec.user_agent, referer_present: rec.referer.is_some() }),
        });
    }
    out
}

/// Incrementally merges per-chunk reduction counters into day totals.
///
/// The distinct-domain series of Fig. 2 are set cardinalities, so the
/// reducer keeps the union of each chunk's domain sets and reports the
/// per-day counts at the end; record tallies are plain sums. One reducer
/// serves either source — read [`DayReducer::dns_counts`] or
/// [`DayReducer::proxy_counts`] according to what was pushed.
#[derive(Debug, Default)]
pub struct DayReducer {
    records: usize,
    records_a_only: usize,
    domains_all: FastSet<DomainSym>,
    domains_after_internal: FastSet<DomainSym>,
    domains_after_server: FastSet<DomainSym>,
}

impl DayReducer {
    /// Creates an empty reducer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one chunk's counters into the day totals (the chunk's
    /// contacts are untouched — route them to a
    /// [`crate::index::DayIndexBuilder`] or history accumulator).
    pub fn push_chunk(&mut self, chunk: &ChunkReduction) {
        self.records += chunk.records;
        self.records_a_only += chunk.records_a_only;
        self.domains_all.extend(&chunk.domains_all);
        self.domains_after_internal.extend(&chunk.domains_after_internal);
        self.domains_after_server.extend(&chunk.domains_after_server);
    }

    /// Records pushed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The day's DNS counters (valid when DNS chunks were pushed).
    pub fn dns_counts(&self) -> DnsReductionCounts {
        DnsReductionCounts {
            records_all: self.records,
            records_a_only: self.records_a_only,
            domains_all: self.domains_all.len(),
            domains_after_internal_filter: self.domains_after_internal.len(),
            domains_after_server_filter: self.domains_after_server.len(),
        }
    }

    /// The day's proxy counters (valid when proxy chunks were pushed).
    pub fn proxy_counts(&self) -> ProxyReductionCounts {
        ProxyReductionCounts {
            records_all: self.records,
            domains_all: self.domains_all.len(),
            domains_after_internal_filter: self.domains_after_internal.len(),
            domains_after_server_filter: self.domains_after_server.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{
        DnsQuery, DomainInterner, HostId, HttpMethod, HttpStatus, Ipv4, PathInterner, Timestamp,
        TzOffset,
    };
    use std::sync::Arc;

    /// Reduces `queries` in chunks of `chunk` records against one fresh
    /// filter, merging the counters the way a day's accumulator does;
    /// contacts come back in record order.
    fn reduce_dns(
        queries: &[DnsQuery],
        meta: &DatasetMeta,
        fold: &FoldTable,
        chunk: usize,
    ) -> (Vec<Contact>, DnsReductionCounts) {
        let filter = InternalFilter::new(ReductionConfig::from_meta(meta));
        let mut reducer = DayReducer::new();
        let mut contacts = Vec::new();
        for span in queries.chunks(chunk) {
            let reduced = reduce_dns_chunk(span, meta, fold, &filter);
            reducer.push_chunk(&reduced);
            contacts.extend(reduced.contacts);
        }
        (contacts, reducer.dns_counts())
    }

    fn meta_with_server(n: u32, server: u32) -> DatasetMeta {
        let mut kinds = vec![HostKind::Workstation; n as usize];
        kinds[server as usize] = HostKind::Server;
        DatasetMeta {
            n_hosts: n,
            host_kinds: kinds,
            internal_suffixes: vec!["corp.local".into()],
            bootstrap_days: 0,
            total_days: 1,
        }
    }

    fn dns_query(
        domains: &DomainInterner,
        ts: u64,
        src: u32,
        name: &str,
        qtype: DnsRecordType,
    ) -> DnsQuery {
        DnsQuery {
            ts: Timestamp::from_secs(ts),
            src: HostId::new(src),
            src_ip: Ipv4::new(10, 0, 0, src as u8),
            qname: domains.intern(name),
            qtype,
            answer: Some(Ipv4::new(93, 1, 2, 3)),
        }
    }

    #[test]
    fn dns_reduction_filters_in_paper_order() {
        let raw = Arc::new(DomainInterner::new());
        let queries = vec![
            dns_query(&raw, 1, 0, "www.nbc.com", DnsRecordType::A),
            dns_query(&raw, 2, 0, "mail.corp.local", DnsRecordType::A), // internal
            dns_query(&raw, 3, 1, "evil.ru", DnsRecordType::A),         // server source
            dns_query(&raw, 4, 0, "txt.example.org", DnsRecordType::Txt), // non-A
            dns_query(&raw, 5, 2, "cdn.nbc.com", DnsRecordType::A),
        ];
        let meta = meta_with_server(3, 1);
        let fold = FoldTable::new(Arc::clone(&raw), 2);
        let (contacts, counts) = reduce_dns(&queries, &meta, &fold, queries.len());

        assert_eq!(counts.records_all, 5);
        assert_eq!(counts.records_a_only, 4);
        // Folded distinct: nbc.com, corp.local, evil.ru, example.org
        assert_eq!(counts.domains_all, 4);
        // internal filter drops corp.local (and the non-A record never reaches it)
        assert_eq!(counts.domains_after_internal_filter, 2);
        // server filter drops evil.ru (only contacted by the server)
        assert_eq!(counts.domains_after_server_filter, 1);
        assert_eq!(
            contacts.len(),
            2,
            "www.nbc.com + cdn.nbc.com fold together but are two contacts"
        );
        assert!(contacts.iter().all(|c| c.http.is_none()));
    }

    #[test]
    fn internal_suffix_requires_label_boundary() {
        let cfg = ReductionConfig { internal_suffixes: vec!["corp.local".into()] };
        assert!(cfg.is_internal("corp.local"));
        assert!(cfg.is_internal("mail.corp.local"));
        assert!(!cfg.is_internal("evilcorp.local"), "no label boundary");
        assert!(!cfg.is_internal("corp.local.evil.com"));
    }

    #[test]
    fn internal_filter_memoizes_per_symbol() {
        let raw = DomainInterner::new();
        let internal = raw.intern("mail.corp.local");
        let external = raw.intern("nbc.com");
        let filter =
            InternalFilter::new(ReductionConfig { internal_suffixes: vec!["corp.local".into()] });
        for _ in 0..3 {
            assert!(filter.is_internal_sym(internal, &raw));
            assert!(!filter.is_internal_sym(external, &raw));
        }
        // A table that numbers the same two names the other way round is
        // never consulted: each distinct symbol was classified once.
        let swapped = DomainInterner::new();
        swapped.intern("nbc.com");
        swapped.intern("mail.corp.local");
        assert!(filter.is_internal_sym(internal, &swapped));
        assert!(!filter.is_internal_sym(external, &swapped));
    }

    #[test]
    fn chunked_reduction_matches_one_chunk() {
        let raw = Arc::new(DomainInterner::new());
        let mut queries = Vec::new();
        for i in 0..60u32 {
            queries.push(dns_query(
                &raw,
                i as u64,
                i % 5,
                &format!("d{i}.example{}.com", i % 7),
                if i % 9 == 0 { DnsRecordType::Txt } else { DnsRecordType::A },
            ));
        }
        queries.push(dns_query(&raw, 99, 0, "x.corp.local", DnsRecordType::A));
        let meta = meta_with_server(5, 2);

        let fold_a = FoldTable::new(Arc::clone(&raw), 2);
        let (whole_contacts, whole_counts) = reduce_dns(&queries, &meta, &fold_a, queries.len());

        let fold_b = FoldTable::new(Arc::clone(&raw), 2);
        let (contacts, counts) = reduce_dns(&queries, &meta, &fold_b, 7);
        assert_eq!(counts, whole_counts);
        assert_eq!(contacts, whole_contacts);
    }

    #[test]
    fn counts_are_monotonically_decreasing() {
        let raw = Arc::new(DomainInterner::new());
        let mut queries = Vec::new();
        for i in 0..50u32 {
            queries.push(dns_query(
                &raw,
                i as u64,
                i % 5,
                &format!("d{i}.example{}.com", i % 7),
                DnsRecordType::A,
            ));
        }
        queries.push(dns_query(&raw, 99, 0, "x.corp.local", DnsRecordType::A));
        let meta = meta_with_server(5, 2);
        let fold = FoldTable::new(Arc::clone(&raw), 2);
        let (_, c) = reduce_dns(&queries, &meta, &fold, 16);
        assert!(c.domains_all >= c.domains_after_internal_filter);
        assert!(c.domains_after_internal_filter >= c.domains_after_server_filter);
        assert!(c.records_all >= c.records_a_only);
    }

    fn proxy_record(
        domains: &DomainInterner,
        paths: &PathInterner,
        ts: u64,
        host: u32,
        name: &str,
        referer: Option<&str>,
    ) -> ProxyRecord {
        ProxyRecord {
            ts_local: Timestamp::from_secs(ts),
            tz: TzOffset::UTC,
            src_ip: Ipv4::new(10, 0, 0, host as u8),
            host: Some(HostId::new(host)),
            domain: domains.intern(name),
            dest_ip: Ipv4::new(93, 1, 2, 3),
            method: HttpMethod::Get,
            status: HttpStatus::OK,
            url_path: paths.intern("/"),
            user_agent: None,
            referer: referer.map(|r| domains.intern(r)),
        }
    }

    #[test]
    fn proxy_reduction_preserves_http_context() {
        let raw = Arc::new(DomainInterner::new());
        let paths = PathInterner::new();
        let recs = vec![
            proxy_record(&raw, &paths, 1, 0, "cdn.evil.ru", None),
            proxy_record(&raw, &paths, 2, 0, "www.nbc.com", Some("google.com")),
            proxy_record(&raw, &paths, 3, 0, "wiki.corp.local", None),
        ];
        let meta = meta_with_server(2, 1);
        let fold = FoldTable::new(Arc::clone(&raw), 2);
        let filter = InternalFilter::new(ReductionConfig::from_meta(&meta));
        let reduced = reduce_proxy_chunk(&recs, &meta, &fold, &filter);
        let mut reducer = DayReducer::new();
        reducer.push_chunk(&reduced);
        let counts = reducer.proxy_counts();
        assert_eq!(counts.records_all, 3);
        assert_eq!(counts.domains_all, 3);
        assert_eq!(counts.domains_after_internal_filter, 2);
        let contacts = reduced.contacts;
        assert_eq!(contacts.len(), 2);
        let evil = contacts.iter().find(|c| fold.folded_name(c.domain) == "evil.ru").unwrap();
        assert!(!evil.http.unwrap().referer_present);
        let nbc = contacts.iter().find(|c| fold.folded_name(c.domain) == "nbc.com").unwrap();
        assert!(nbc.http.unwrap().referer_present);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn proxy_reduction_requires_resolved_hosts() {
        let raw = Arc::new(DomainInterner::new());
        let paths = PathInterner::new();
        let mut rec = proxy_record(&raw, &paths, 1, 0, "a.com", None);
        rec.host = None;
        let meta = meta_with_server(2, 1);
        let fold = FoldTable::new(Arc::clone(&raw), 2);
        let filter = InternalFilter::new(ReductionConfig::default());
        let _ = reduce_proxy_chunk(&[rec], &meta, &fold, &filter);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_internal_filter() {
        let raw = DomainInterner::new();
        let internal = raw.intern("mail.corp.local");
        let external = raw.intern("nbc.com");
        let filter =
            InternalFilter::new(ReductionConfig { internal_suffixes: vec!["corp.local".into()] });
        assert!(filter.is_internal_sym(internal, &raw));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = filter.live.write().unwrap();
                    panic!("reduce worker dies holding the verdict cache");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(filter.live.is_poisoned());
        assert!(filter.is_internal_sym(internal, &raw), "cached verdict survives");
        assert!(!filter.is_internal_sym(external, &raw), "fresh verdicts still land");
        assert!(!filter.judge().is_internal(external, &raw));
    }
}
