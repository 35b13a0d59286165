//! Proxy-record normalization: UTC conversion, DHCP/VPN lease resolution,
//! and IP-literal destination filtering (§IV-A).
//!
//! "we converted all timestamps into UTC and DHCP and VPN IP addresses to
//! hostnames (by parsing the DHCP and VPN logs collected by the
//! organization) ... We do not consider destinations that are IP addresses."

use crate::reduce::NameVerdicts;
use earlybird_logmodel::{DhcpLog, ProxyRecord};
use serde::{Deserialize, Serialize};

/// Per-day normalization statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NormalizationCounts {
    /// Raw records seen.
    pub input: usize,
    /// Records surviving normalization.
    pub output: usize,
    /// Records whose source IP had no covering DHCP/VPN lease.
    pub dropped_unresolvable: usize,
    /// Records whose destination "domain" was an IP literal.
    pub dropped_ip_literal: usize,
}

impl NormalizationCounts {
    /// Merges another (chunk's) counters into this one.
    pub fn merge(&mut self, other: &NormalizationCounts) {
        self.input += other.input;
        self.output += other.output;
        self.dropped_unresolvable += other.dropped_unresolvable;
        self.dropped_ip_literal += other.dropped_ip_literal;
    }
}

/// Normalizes one chunk of proxy records: converts timestamps to UTC,
/// resolves `src_ip` to a stable [`earlybird_logmodel::HostId`] through the
/// lease log, and drops records with IP-literal destinations or unresolvable
/// sources.
///
/// Records that already carry a resolved `host` are passed through without a
/// lease lookup. The output preserves the chunk's record order (streaming
/// consumers never need a sorted day). `verdicts` is only read, so disjoint
/// chunks may run on parallel workers.
///
/// # Panics
///
/// Panics if a destination was not admitted to `verdicts` first.
pub fn normalize_proxy_chunk(
    records: &[ProxyRecord],
    dhcp: &DhcpLog,
    verdicts: &NameVerdicts,
) -> (Vec<ProxyRecord>, NormalizationCounts) {
    let mut counts = NormalizationCounts { input: records.len(), ..Default::default() };
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        if verdicts.is_ip_literal(rec.domain) {
            counts.dropped_ip_literal += 1;
            continue;
        }
        let ts_utc = rec.ts_utc();
        let host = match rec.host {
            Some(h) => Some(h),
            None => dhcp.resolve(rec.src_ip, ts_utc),
        };
        let Some(host) = host else {
            counts.dropped_unresolvable += 1;
            continue;
        };
        let mut normalized = *rec;
        normalized.host = Some(host);
        // Store UTC in ts_local with a zero offset so downstream consumers
        // can use ts_local uniformly.
        normalized.ts_local = ts_utc;
        normalized.tz = earlybird_logmodel::TzOffset::UTC;
        out.push(normalized);
    }
    counts.output = out.len();
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReductionConfig;
    use earlybird_logmodel::{
        DhcpLease, DomainInterner, HostId, HttpMethod, HttpStatus, Ipv4, PathInterner, Timestamp,
        TzOffset,
    };

    fn record(
        domains: &DomainInterner,
        paths: &PathInterner,
        ts_local: u64,
        tz_minutes: i32,
        src_ip: Ipv4,
        domain: &str,
    ) -> ProxyRecord {
        ProxyRecord {
            ts_local: Timestamp::from_secs(ts_local),
            tz: TzOffset::from_minutes(tz_minutes),
            src_ip,
            host: None,
            domain: domains.intern(domain),
            dest_ip: Ipv4::new(93, 184, 216, 34),
            method: HttpMethod::Get,
            status: HttpStatus::OK,
            url_path: paths.intern("/"),
            user_agent: None,
            referer: None,
        }
    }

    /// The verdicts of every name `domains` holds.
    fn admitted(domains: &DomainInterner) -> NameVerdicts {
        let mut verdicts = NameVerdicts::new(ReductionConfig::default());
        verdicts.admit(domains);
        verdicts
    }

    fn lease(ip: Ipv4, host: u32, start: u64, end: u64) -> DhcpLease {
        DhcpLease {
            ip,
            host: HostId::new(host),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    #[test]
    fn resolves_leases_and_converts_to_utc() {
        let domains = DomainInterner::new();
        let paths = PathInterner::new();
        let ip = Ipv4::new(10, 0, 0, 9);
        let mut dhcp = DhcpLog::new();
        dhcp.add(lease(ip, 7, 0, 100_000));
        let records = [record(&domains, &paths, 7_200, 60, ip, "nbc.com")];
        let (out, counts) = normalize_proxy_chunk(&records, &dhcp, &admitted(&domains));
        assert_eq!(counts.output, 1);
        assert_eq!(out[0].host, Some(HostId::new(7)));
        // UTC-1h applied, offset reset.
        assert_eq!(out[0].ts_local, Timestamp::from_secs(3_600));
        assert_eq!(out[0].tz, TzOffset::UTC);
    }

    #[test]
    fn drops_unresolvable_sources() {
        let domains = DomainInterner::new();
        let paths = PathInterner::new();
        let dhcp = DhcpLog::new();
        let records = [record(&domains, &paths, 100, 0, Ipv4::new(10, 0, 0, 1), "nbc.com")];
        let (out, counts) = normalize_proxy_chunk(&records, &dhcp, &admitted(&domains));
        assert!(out.is_empty());
        assert_eq!(counts.dropped_unresolvable, 1);
    }

    #[test]
    fn drops_ip_literal_destinations() {
        let domains = DomainInterner::new();
        let paths = PathInterner::new();
        let ip = Ipv4::new(10, 0, 0, 9);
        let mut dhcp = DhcpLog::new();
        dhcp.add(lease(ip, 7, 0, 1_000));
        let records = [
            record(&domains, &paths, 10, 0, ip, "8.8.8.8"),
            record(&domains, &paths, 11, 0, ip, "8.8.8.8.nip.io"),
        ];
        let (out, counts) = normalize_proxy_chunk(&records, &dhcp, &admitted(&domains));
        assert_eq!(out.iter().map(|r| r.domain).collect::<Vec<_>>(), [records[1].domain]);
        assert_eq!(counts.dropped_ip_literal, 1);
    }

    #[test]
    fn preexisting_host_is_passed_through() {
        let domains = DomainInterner::new();
        let paths = PathInterner::new();
        let dhcp = DhcpLog::new(); // empty — would fail lease resolution
        let mut rec = record(&domains, &paths, 10, 0, Ipv4::new(10, 0, 0, 2), "nbc.com");
        rec.host = Some(HostId::new(3));
        let (out, counts) = normalize_proxy_chunk(&[rec], &dhcp, &admitted(&domains));
        assert_eq!(counts.output, 1);
        assert_eq!(out[0].host, Some(HostId::new(3)));
    }

    #[test]
    fn output_keeps_record_order_and_merged_counts_add_up() {
        let domains = DomainInterner::new();
        let paths = PathInterner::new();
        let ip = Ipv4::new(10, 0, 0, 9);
        let mut dhcp = DhcpLog::new();
        dhcp.add(lease(ip, 7, 0, 1_000_000));
        // Two records whose local order differs from UTC order because of
        // different collector timezones, then one unresolvable source.
        let r1 = record(&domains, &paths, 10_000, 300, ip, "a.com"); // UTC 10_000-18_000 -> early
        let r2 = record(&domains, &paths, 9_000, -60, ip, "b.com"); // UTC 9_000+3_600 = 12_600
        let r3 = record(&domains, &paths, 9_500, 0, Ipv4::new(10, 0, 0, 1), "c.com");
        let verdicts = admitted(&domains);
        let (out, counts) = normalize_proxy_chunk(&[r2, r1, r3], &dhcp, &verdicts);
        assert_eq!(out.iter().map(|r| r.domain).collect::<Vec<_>>(), [r2.domain, r1.domain]);
        assert_eq!(out[0].ts_local, Timestamp::from_secs(12_600));
        assert!(out[0].ts_local > out[1].ts_local, "chunks are not sorted");

        // A day's counters are the merge of its chunks'.
        let mut merged = NormalizationCounts::default();
        for chunk in [&[r2][..], &[r1, r3][..]] {
            merged.merge(&normalize_proxy_chunk(chunk, &dhcp, &verdicts).1);
        }
        assert_eq!(merged, counts);
        assert_eq!((counts.input, counts.output, counts.dropped_unresolvable), (3, 2, 1));
    }
}
