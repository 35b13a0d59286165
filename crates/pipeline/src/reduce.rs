//! Data reduction (§IV-A): A-record restriction, internal-query and
//! internal-server filtering, folding — with the per-step distinct-domain
//! counters plotted in Fig. 2.
//!
//! Reduction is chunk-oriented so a day never has to be materialized at
//! once: [`reduce_dns_chunk`] / [`reduce_proxy_chunk`] turn any consecutive
//! slice of a day's records into a [`ChunkReduction`] (contacts plus partial
//! counters), and a [`DayReducer`] merges the per-chunk counters into the
//! day totals. The chunk reducers only read plain per-name tables — the
//! [`FoldTable`] memo and the [`NameVerdicts`] flags, both filled by their
//! owner in a sequential pass before the chunks are handed out — so
//! disjoint chunks of one day can be reduced on parallel workers without
//! taking a lock.

use crate::contact::{Contact, HttpContext};
use crate::fold::FoldTable;
use earlybird_logmodel::{
    DatasetMeta, DnsQuery, DnsRecordType, DomainInterner, DomainSym, FastSet, HostKind, Ipv4,
    ProxyRecord,
};
use serde::{Deserialize, Serialize};

/// Configuration of the reduction filters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReductionConfig {
    /// Suffixes of internal (enterprise-owned) namespaces; queries to these
    /// are dropped ("we filter out queries for internal LANL resources").
    pub internal_suffixes: Vec<String>,
}

impl ReductionConfig {
    /// Builds the config from dataset metadata. Each suffix loses one
    /// leading `.` (`.corp.local` is a common way to write `corp.local`),
    /// and empty suffixes are dropped rather than matching every name that
    /// ends in a dot.
    pub fn from_meta(meta: &DatasetMeta) -> Self {
        let internal_suffixes = meta
            .internal_suffixes
            .iter()
            .map(|s| s.strip_prefix('.').unwrap_or(s))
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        ReductionConfig { internal_suffixes }
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

/// Verdict bit: the name is under an internal suffix.
const INTERNAL: u8 = 1;
/// Verdict bit: the name is an IPv4 literal (§IV-A drops those).
const IP_LITERAL: u8 = 2;

/// The per-name reduction verdicts — internal namespace, IP literal — as a
/// dense byte table indexed by raw [`DomainSym`].
///
/// Both verdicts are pure functions of the name and of the fixed
/// [`ReductionConfig`], so each distinct name is judged exactly once: the
/// owner calls [`NameVerdicts::admit`] sequentially before handing a span's
/// records to workers, which extends the table over every name the
/// interner minted since the last admission (whoever interned it). Workers
/// share the table immutably; a lookup is one array load. Admission never
/// interns, so it cannot affect any symbol numbering.
#[derive(Debug)]
pub struct NameVerdicts {
    cfg: ReductionConfig,
    flags: Vec<u8>,
}

impl NameVerdicts {
    /// An empty table judging names against `cfg`.
    pub fn new(cfg: ReductionConfig) -> Self {
        NameVerdicts { cfg, flags: Vec::new() }
    }

    /// Judges every name `names` holds beyond the table's end.
    pub fn admit(&mut self, names: &DomainInterner) {
        if names.len() == self.flags.len() {
            return;
        }
        let fresh = names.tail(self.flags.len());
        let cfg = &self.cfg;
        self.flags.extend(fresh.iter().map(|name| {
            let internal = if cfg.is_internal(name) { INTERNAL } else { 0 };
            let literal = if name.parse::<Ipv4>().is_ok() { IP_LITERAL } else { 0 };
            internal | literal
        }));
    }

    /// Whether `sym` names an internal destination.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted after the last [`NameVerdicts::admit`].
    pub fn is_internal(&self, sym: DomainSym) -> bool {
        self.flags(sym) & INTERNAL != 0
    }

    /// Whether `sym` names an IP literal rather than a domain.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted after the last [`NameVerdicts::admit`].
    pub fn is_ip_literal(&self, sym: DomainSym) -> bool {
        self.flags(sym) & IP_LITERAL != 0
    }

    fn flags(&self, sym: DomainSym) -> u8 {
        *self.flags.get(sym.raw() as usize).expect("names are admitted before reduction")
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

/// Reduces one chunk of DNS queries. `fold` must already hold every
/// query's fold and `verdicts` every query's name; both are only read, so
/// disjoint chunks may run on parallel workers.
///
/// # Panics
///
/// Panics if a query's name was not folded or admitted first.
pub fn reduce_dns_chunk(
    queries: &[DnsQuery],
    meta: &DatasetMeta,
    fold: &FoldTable,
    verdicts: &NameVerdicts,
) -> ChunkReduction {
    let mut out = ChunkReduction { records: queries.len(), ..ChunkReduction::default() };
    for q in queries {
        let folded = fold.folded(q.qname).expect("names are folded before reduction");
        out.domains_all.insert(folded);
        if q.qtype != DnsRecordType::A {
            continue;
        }
        out.records_a_only += 1;
        if verdicts.is_internal(q.qname) {
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
/// [`crate::normalize`]); read-only over `fold` and `verdicts` like
/// [`reduce_dns_chunk`].
///
/// # Panics
///
/// Panics if a record has no resolved host (normalization must run first),
/// or if its destination was not folded or admitted first.
pub fn reduce_proxy_chunk(
    records: &[ProxyRecord],
    meta: &DatasetMeta,
    fold: &FoldTable,
    verdicts: &NameVerdicts,
) -> ChunkReduction {
    let mut out = ChunkReduction { records: records.len(), ..ChunkReduction::default() };
    for rec in records {
        let host = rec.host.expect("proxy records must be normalized before reduction");
        let folded = fold.folded(rec.domain).expect("names are folded before reduction");
        out.domains_all.insert(folded);
        if verdicts.is_internal(rec.domain) {
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

    /// The day's distinct folded domains that survived every filter —
    /// exactly the domains of the contacts the pushed chunks carried.
    pub fn domains_after_server(&self) -> &FastSet<DomainSym> {
        &self.domains_after_server
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
        DnsQuery, DomainInterner, HostId, HttpMethod, HttpStatus, PathInterner, Timestamp, TzOffset,
    };
    use std::sync::Arc;

    /// Admits and folds `queries` sequentially, the way a day's owner does
    /// before handing chunks to workers.
    fn prepare(queries: &[DnsQuery], meta: &DatasetMeta, fold: &mut FoldTable) -> NameVerdicts {
        let mut verdicts = NameVerdicts::new(ReductionConfig::from_meta(meta));
        verdicts.admit(fold.raw_interner());
        for q in queries {
            fold.fold(q.qname);
        }
        verdicts
    }

    /// Reduces `queries` in chunks of `chunk` records, merging the counters
    /// the way a day's accumulator does; contacts come back in record order.
    fn reduce_dns(
        queries: &[DnsQuery],
        meta: &DatasetMeta,
        fold: &mut FoldTable,
        chunk: usize,
    ) -> (Vec<Contact>, DnsReductionCounts) {
        let verdicts = prepare(queries, meta, fold);
        let mut reducer = DayReducer::new();
        let mut contacts = Vec::new();
        for span in queries.chunks(chunk) {
            let reduced = reduce_dns_chunk(span, meta, fold, &verdicts);
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
        let mut fold = FoldTable::new(Arc::clone(&raw), 2);
        let (contacts, counts) = reduce_dns(&queries, &meta, &mut fold, queries.len());

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
    fn from_meta_normalizes_leading_dots_and_empty_suffixes() {
        let cfg_for = |suffixes: &[&str]| {
            let mut meta = meta_with_server(1, 0);
            meta.internal_suffixes = suffixes.iter().map(|s| s.to_string()).collect();
            ReductionConfig::from_meta(&meta)
        };
        for suffix in ["corp.local", ".corp.local"] {
            let cfg = cfg_for(&[suffix]);
            assert!(cfg.is_internal("corp.local"), "{suffix}");
            assert!(cfg.is_internal("mail.corp.local"), "{suffix}");
            assert!(!cfg.is_internal("evilcorp.local"), "{suffix}: no label boundary");
            assert!(!cfg.is_internal("nbc.com"), "{suffix}");
        }
        let cfg = cfg_for(&["", "."]);
        assert!(cfg.internal_suffixes.is_empty(), "empty suffixes are dropped");
        assert!(!cfg.is_internal("nbc.com."), "an empty suffix matches nothing");
        assert!(!cfg.is_internal(""));
    }

    #[test]
    fn verdicts_cover_names_interned_since_the_last_admission() {
        let raw = DomainInterner::new();
        let internal = raw.intern("mail.corp.local");
        let external = raw.intern("nbc.com");
        let mut verdicts =
            NameVerdicts::new(ReductionConfig { internal_suffixes: vec!["corp.local".into()] });
        verdicts.admit(&raw);
        assert!(verdicts.is_internal(internal));
        assert!(!verdicts.is_internal(external));
        assert!(!verdicts.is_ip_literal(external));

        let literal = raw.intern("8.8.8.8");
        let late = raw.intern("wiki.corp.local");
        verdicts.admit(&raw);
        assert!(verdicts.is_ip_literal(literal) && !verdicts.is_internal(literal));
        assert!(verdicts.is_internal(late) && !verdicts.is_ip_literal(late));
        assert_eq!(raw.len(), 4, "admission interns nothing");
    }

    #[test]
    #[should_panic(expected = "admitted")]
    fn an_unadmitted_name_is_an_invariant_violation() {
        let raw = DomainInterner::new();
        let verdicts = NameVerdicts::new(ReductionConfig::default());
        let _ = verdicts.is_internal(raw.intern("nbc.com"));
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

        let mut fold_a = FoldTable::new(Arc::clone(&raw), 2);
        let (whole_contacts, whole_counts) =
            reduce_dns(&queries, &meta, &mut fold_a, queries.len());

        let mut fold_b = FoldTable::new(Arc::clone(&raw), 2);
        let (contacts, counts) = reduce_dns(&queries, &meta, &mut fold_b, 7);
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
        let mut fold = FoldTable::new(Arc::clone(&raw), 2);
        let (_, c) = reduce_dns(&queries, &meta, &mut fold, 16);
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
        let mut fold = FoldTable::new(Arc::clone(&raw), 2);
        let mut verdicts = NameVerdicts::new(ReductionConfig::from_meta(&meta));
        verdicts.admit(&raw);
        for rec in &recs {
            fold.fold(rec.domain);
        }
        let reduced = reduce_proxy_chunk(&recs, &meta, &fold, &verdicts);
        let mut reducer = DayReducer::new();
        reducer.push_chunk(&reduced);
        let counts = reducer.proxy_counts();
        assert_eq!(counts.records_all, 3);
        assert_eq!(counts.domains_all, 3);
        assert_eq!(counts.domains_after_internal_filter, 2);
        let contacts = reduced.contacts;
        assert_eq!(contacts.len(), 2);
        let evil = contacts
            .iter()
            .find(|c| fold.folded_interner().resolve(c.domain) == "evil.ru")
            .unwrap();
        assert!(!evil.http.unwrap().referer_present);
        let nbc = contacts
            .iter()
            .find(|c| fold.folded_interner().resolve(c.domain) == "nbc.com")
            .unwrap();
        assert!(nbc.http.unwrap().referer_present);
        let survivors: Vec<_> = contacts.iter().map(|c| c.domain).collect();
        assert!(survivors.iter().all(|d| reducer.domains_after_server().contains(d)));
        assert_eq!(reducer.domains_after_server().len(), 2);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn proxy_reduction_requires_resolved_hosts() {
        let raw = Arc::new(DomainInterner::new());
        let paths = PathInterner::new();
        let mut rec = proxy_record(&raw, &paths, 1, 0, "a.com", None);
        rec.host = None;
        let meta = meta_with_server(2, 1);
        let mut fold = FoldTable::new(Arc::clone(&raw), 2);
        fold.fold(rec.domain);
        let mut verdicts = NameVerdicts::new(ReductionConfig::default());
        verdicts.admit(&raw);
        let _ = reduce_proxy_chunk(&[rec], &meta, &fold, &verdicts);
    }

    #[test]
    #[should_panic(expected = "folded")]
    fn reduction_requires_warmed_folds() {
        let raw = Arc::new(DomainInterner::new());
        let queries = [dns_query(&raw, 1, 0, "www.nbc.com", DnsRecordType::A)];
        let meta = meta_with_server(2, 1);
        let fold = FoldTable::new(Arc::clone(&raw), 2);
        let mut verdicts = NameVerdicts::new(ReductionConfig::from_meta(&meta));
        verdicts.admit(&raw);
        let _ = reduce_dns_chunk(&queries, &meta, &fold, &verdicts);
    }
}
