//! Dataset containers: daily record batches plus the interners and auxiliary
//! logs (DHCP/VPN leases) they reference.

use crate::dns::DnsQuery;
use crate::host::{HostId, HostKind};
use crate::http::ProxyRecord;
use crate::intern::{DomainInterner, PathInterner, UaInterner};
use crate::ip::Ipv4;
use crate::time::{Day, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Metadata shared by both dataset flavours.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DatasetMeta {
    /// Number of internal hosts (workstations + servers).
    pub n_hosts: u32,
    /// Host kinds, indexed by [`HostId::index`].
    pub host_kinds: Vec<HostKind>,
    /// Domain-name suffixes considered internal to the enterprise (queries to
    /// these are dropped during reduction).
    pub internal_suffixes: Vec<String>,
    /// Number of bootstrap (training/profiling) days at the start of the
    /// window; operation days follow.
    pub bootstrap_days: u32,
    /// Total days in the window.
    pub total_days: u32,
}

impl DatasetMeta {
    /// Kind of `host`, defaulting to workstation for out-of-range ids.
    pub fn kind(&self, host: HostId) -> HostKind {
        self.host_kinds.get(host.index() as usize).copied().unwrap_or(HostKind::Workstation)
    }

    /// Days in the operation period.
    pub fn operation_days(&self) -> impl Iterator<Item = Day> {
        Day::new(self.bootstrap_days).range_to(Day::new(self.total_days))
    }
}

/// One day of DNS logs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DnsDayLog {
    /// Day the records fall on.
    pub day: Day,
    /// Queries in timestamp order.
    pub queries: Vec<DnsQuery>,
}

/// A LANL-style DNS dataset: per-day query batches plus the domain interner.
pub struct DnsDataset {
    /// Interner for every queried name.
    pub domains: Arc<DomainInterner>,
    /// Daily batches, one per day of the window, in day order.
    pub days: Vec<DnsDayLog>,
    /// Shared metadata.
    pub meta: DatasetMeta,
}

impl DnsDataset {
    /// The batch for `day`, if within the window.
    pub fn day(&self, day: Day) -> Option<&DnsDayLog> {
        self.days.iter().find(|d| d.day == day)
    }

    /// Total number of queries across all days.
    pub fn total_queries(&self) -> usize {
        self.days.iter().map(|d| d.queries.len()).sum()
    }
}

impl fmt::Debug for DnsDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DnsDataset")
            .field("days", &self.days.len())
            .field("queries", &self.total_queries())
            .field("domains", &self.domains.len())
            .finish()
    }
}

/// One day of web-proxy logs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProxyDayLog {
    /// Day the records fall on (UTC).
    pub day: Day,
    /// Records, roughly in local-timestamp order as proxies emit them.
    pub records: Vec<ProxyRecord>,
}

/// A DHCP or VPN address lease: `ip` belonged to `host` during
/// `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DhcpLease {
    /// Leased address.
    pub ip: Ipv4,
    /// Host holding the lease.
    pub host: HostId,
    /// Lease start (inclusive, UTC).
    pub start: Timestamp,
    /// Lease end (exclusive, UTC).
    pub end: Timestamp,
}

/// The DHCP/VPN lease log the paper parses to convert "DHCP and VPN IP
/// addresses to hostnames" (§IV-A).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DhcpLog {
    by_ip: HashMap<Ipv4, Vec<DhcpLease>>,
}

impl DhcpLog {
    /// Creates an empty lease log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a lease. Leases for one IP are kept sorted by start time.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn add(&mut self, lease: DhcpLease) {
        assert!(lease.start < lease.end, "lease interval must be non-empty");
        let v = self.by_ip.entry(lease.ip).or_default();
        let pos = v.partition_point(|l| l.start <= lease.start);
        v.insert(pos, lease);
    }

    /// Resolves `ip` at UTC time `ts` to the host holding the lease then.
    pub fn resolve(&self, ip: Ipv4, ts: Timestamp) -> Option<HostId> {
        let leases = self.by_ip.get(&ip)?;
        // Last lease starting at or before ts.
        let idx = leases.partition_point(|l| l.start <= ts);
        let lease = leases[..idx].last()?;
        (ts < lease.end).then_some(lease.host)
    }

    /// Total number of leases.
    pub fn len(&self) -> usize {
        self.by_ip.values().map(Vec::len).sum()
    }

    /// Whether the log holds no leases.
    pub fn is_empty(&self) -> bool {
        self.by_ip.is_empty()
    }
}

/// An AC-style web-proxy dataset: daily batches, interners for domains /
/// user agents / URL paths, and the DHCP/VPN lease log used by
/// normalization.
pub struct ProxyDataset {
    /// Interner for destination and referer domains.
    pub domains: Arc<DomainInterner>,
    /// Interner for user-agent strings.
    pub uas: Arc<UaInterner>,
    /// Interner for URL paths.
    pub paths: Arc<PathInterner>,
    /// Daily batches in day order.
    pub days: Vec<ProxyDayLog>,
    /// DHCP/VPN lease log.
    pub dhcp: DhcpLog,
    /// Shared metadata.
    pub meta: DatasetMeta,
}

impl ProxyDataset {
    /// The batch for `day`, if within the window.
    pub fn day(&self, day: Day) -> Option<&ProxyDayLog> {
        self.days.iter().find(|d| d.day == day)
    }

    /// Total number of records across all days.
    pub fn total_records(&self) -> usize {
        self.days.iter().map(|d| d.records.len()).sum()
    }
}

impl fmt::Debug for ProxyDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyDataset")
            .field("days", &self.days.len())
            .field("records", &self.total_records())
            .field("domains", &self.domains.len())
            .field("leases", &self.dhcp.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(ip: Ipv4, host: u32, start: u64, end: u64) -> DhcpLease {
        DhcpLease {
            ip,
            host: HostId::new(host),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    #[test]
    fn dhcp_resolution_picks_covering_lease() {
        let ip = Ipv4::new(10, 0, 0, 5);
        let mut log = DhcpLog::new();
        log.add(lease(ip, 1, 0, 100));
        log.add(lease(ip, 2, 100, 200));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(50)), Some(HostId::new(1)));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(100)), Some(HostId::new(2)));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(199)), Some(HostId::new(2)));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(200)), None);
        assert_eq!(log.resolve(Ipv4::new(10, 0, 0, 6), Timestamp::from_secs(50)), None);
    }

    #[test]
    fn dhcp_out_of_order_insertion() {
        let ip = Ipv4::new(10, 0, 0, 5);
        let mut log = DhcpLog::new();
        log.add(lease(ip, 2, 100, 200));
        log.add(lease(ip, 1, 0, 100));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(10)), Some(HostId::new(1)));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn dhcp_gap_between_leases_resolves_to_none() {
        let ip = Ipv4::new(10, 0, 0, 7);
        let mut log = DhcpLog::new();
        log.add(lease(ip, 1, 0, 50));
        log.add(lease(ip, 2, 80, 120));
        assert_eq!(log.resolve(ip, Timestamp::from_secs(60)), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn dhcp_rejects_empty_lease() {
        let mut log = DhcpLog::new();
        log.add(lease(Ipv4::new(10, 0, 0, 1), 1, 10, 10));
    }

    #[test]
    fn meta_period_iterators() {
        let meta = DatasetMeta {
            n_hosts: 4,
            host_kinds: vec![HostKind::Workstation, HostKind::Server],
            internal_suffixes: vec!["corp.internal".into()],
            bootstrap_days: 2,
            total_days: 4,
        };
        let op: Vec<Day> = meta.operation_days().collect();
        assert_eq!(op, vec![Day::new(2), Day::new(3)]);
        assert_eq!(meta.kind(HostId::new(1)), HostKind::Server);
        assert_eq!(meta.kind(HostId::new(99)), HostKind::Workstation);
    }
}
