//! DNS log records (LANL-style dataset).

use crate::intern::DomainSym;
use crate::ip::Ipv4;
use crate::time::Timestamp;
use crate::HostId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// DNS resource-record types seen in enterprise resolver logs.
///
/// The paper restricts analysis to `A` records: "information in other records
/// (e.g., TXT) is redacted and thus not useful" (§IV-A). The other variants
/// exist so the reduction step has something real to filter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DnsRecordType {
    /// IPv4 address record — the only type the analysis keeps.
    A,
    /// IPv6 address record.
    Aaaa,
    /// Canonical-name alias record.
    Cname,
    /// Mail-exchanger record.
    Mx,
    /// Free-form text record (redacted in the LANL release).
    Txt,
    /// Reverse-lookup pointer record.
    Ptr,
    /// Service-locator record.
    Srv,
}

impl DnsRecordType {
    /// All record types, for generators and tests.
    pub const ALL: [DnsRecordType; 7] = [
        DnsRecordType::A,
        DnsRecordType::Aaaa,
        DnsRecordType::Cname,
        DnsRecordType::Mx,
        DnsRecordType::Txt,
        DnsRecordType::Ptr,
        DnsRecordType::Srv,
    ];
}

impl fmt::Display for DnsRecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DnsRecordType::A => "A",
            DnsRecordType::Aaaa => "AAAA",
            DnsRecordType::Cname => "CNAME",
            DnsRecordType::Mx => "MX",
            DnsRecordType::Txt => "TXT",
            DnsRecordType::Ptr => "PTR",
            DnsRecordType::Srv => "SRV",
        };
        f.write_str(s)
    }
}

/// One DNS query plus its response, as recorded by the enterprise resolver.
///
/// Matches the fields of the anonymized LANL release: timestamp, source host,
/// queried name, record type, and the answer address (for `A` queries that
/// resolved).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DnsQuery {
    /// When the query was issued (already UTC in the LANL data).
    pub ts: Timestamp,
    /// The internal host that issued the query.
    pub src: HostId,
    /// Source address of the query.
    pub src_ip: Ipv4,
    /// Queried domain name (interned in the owning dataset).
    pub qname: DomainSym,
    /// Record type requested.
    pub qtype: DnsRecordType,
    /// Resolved address, when the response carried one.
    pub answer: Option<Ipv4>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Day, DomainInterner};

    #[test]
    fn record_type_display() {
        assert_eq!(DnsRecordType::A.to_string(), "A");
        assert_eq!(DnsRecordType::Aaaa.to_string(), "AAAA");
        assert_eq!(DnsRecordType::ALL.len(), 7);
    }

    #[test]
    fn query_construction() {
        let domains = DomainInterner::new();
        let q = DnsQuery {
            ts: Timestamp::from_day_secs(Day::new(1), 10),
            src: HostId::new(3),
            src_ip: Ipv4::new(10, 0, 0, 3),
            qname: domains.intern("rainbow.c3"),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(191, 146, 166, 145)),
        };
        assert_eq!(q.qtype, DnsRecordType::A);
        assert_eq!(domains.resolve(q.qname), "rainbow.c3");
    }
}
