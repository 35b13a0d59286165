//! Core data model for enterprise log mining.
//!
//! This crate defines the vocabulary types shared by every other `earlybird`
//! crate: simulation [`Timestamp`]s and [`Day`]s, internal [`HostId`]s,
//! interned [`DomainSym`] / [`UaSym`] / [`PathSym`] symbols, [`Ipv4`]
//! addresses with subnet arithmetic, and the two raw record types the DSN'15
//! paper mines — [`DnsQuery`] (LANL-style DNS logs) and [`ProxyRecord`]
//! (AC-style web-proxy logs) — together with the [`DnsDataset`] /
//! [`ProxyDataset`] containers that bundle records with their string
//! interners and DHCP/VPN lease logs.
//!
//! # Example
//!
//! ```
//! use earlybird_logmodel::{Day, DomainInterner, Timestamp};
//!
//! let domains = DomainInterner::new();
//! let evil = domains.intern("update.badcdn.info");
//! assert_eq!(domains.resolve(evil), "update.badcdn.info");
//!
//! let ts = Timestamp::from_day_secs(Day::new(3), 3_600);
//! assert_eq!(ts.day(), Day::new(3));
//! assert_eq!(ts.secs_of_day(), 3_600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod dataset;
pub mod dns;
pub mod domain;
pub mod hash;
pub mod host;
pub mod http;
pub mod intern;
pub mod ip;
pub mod scan;
pub mod time;

pub use codec::{
    format_dns_line, format_proxy_line, lookup_dns_span, lookup_proxy_span, parse_dns_line,
    parse_dns_line_unassigned, parse_dns_span, parse_proxy_line, parse_proxy_span, payload_line,
    HostMapper, ParseLogError, ParsedChunk, SpanMisses,
};
pub use dataset::{
    DatasetMeta, DhcpLease, DhcpLog, DnsDataset, DnsDayLog, ProxyDataset, ProxyDayLog,
};
pub use dns::{DnsQuery, DnsRecordType};
pub use domain::{fold_domain, label_count, top_level_domain};
pub use hash::{FastHasher, FastMap, FastSet, FastState};
pub use host::{HostId, HostKind};
pub use http::{HttpMethod, HttpStatus, ProxyRecord};
pub use intern::{
    DomainInterner, DomainSym, DomainTag, InternerReader, PathInterner, PathSym, PathTag, StrArena,
    Symbol, TypedInterner, UaInterner, UaSym, UaTag,
};
pub use ip::{Ipv4, ParseIpv4Error, Subnet16, Subnet24};
pub use time::{Day, Timestamp, TzOffset, SECONDS_PER_DAY};
