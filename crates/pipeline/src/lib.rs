//! Log normalization, reduction, profiling, and per-day indexing (§IV-A and
//! the profiling steps of §III-E).
//!
//! The pipeline turns raw dataset records into a uniform stream of
//! [`Contact`]s — `(UTC timestamp, host, folded domain, destination IP,
//! optional HTTP context)` — so the detection layer is agnostic to whether
//! the input was DNS or web-proxy logs ("We focus on general patterns of
//! infections that is common in various types of network data", §II-C):
//!
//! * [`normalize`] — timezone conversion to UTC and DHCP/VPN lease
//!   resolution for proxy records; IP-literal destination filtering.
//! * [`fold`] — domain folding to the paper's second level (third level for
//!   anonymized LANL names) with a dedicated folded-name interner.
//! * [`reduce`] — A-record / internal-query / internal-server filters with
//!   the per-step distinct-domain counters that Fig. 2 plots, built from
//!   thread-safe chunk reducers ([`reduce_dns_chunk`] /
//!   [`reduce_proxy_chunk`]) whose partial counters a [`DayReducer`] merges
//!   into day totals.
//! * [`history`] — incrementally updated histories of external destinations
//!   and user-agent strings.
//! * [`rare`] — "new + unpopular" rare-destination extraction.
//! * [`index`] — the per-day [`DayIndex`] over contacts: host↔domain edges,
//!   per-edge timestamp series, per-domain IPs and HTTP statistics, held as
//!   sorted columns; built incrementally from out-of-order chunks by
//!   [`DayIndexBuilder`] (or from a contact list by [`DayIndex::build`],
//!   which test fixtures use).
//!
//! The chunk-level entry points take only `&self` state (the fold memo and
//! the [`InternalFilter`] verdict cache are internally synchronized), so one
//! day's chunks can be reduced on parallel workers while a single-threaded
//! owner merges counters and index state in chunk order.
//!
//! # Example
//!
//! ```
//! use earlybird_logmodel::{Day, DomainInterner};
//! use earlybird_pipeline::fold::FoldTable;
//! use std::sync::Arc;
//!
//! let raw = Arc::new(DomainInterner::new());
//! let sym = raw.intern("news.nbc.com");
//! let mut fold = FoldTable::new(Arc::clone(&raw), 2);
//! let folded = fold.fold(sym);
//! assert_eq!(fold.folded_interner().resolve(folded), "nbc.com");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contact;
pub mod fold;
pub mod history;
pub mod index;
pub mod normalize;
pub mod rare;
pub mod reduce;

pub use contact::{Contact, HttpContext};
pub use fold::{DomainFolder, FoldTable};
pub use history::{DomainHistory, UaHistory};
pub use index::{DayIndex, DayIndexBuilder, EdgeHttp, EdgeKey, Grouped, UnsortedColumn};
pub use normalize::{normalize_proxy_chunk, NormalizationCounts};
pub use rare::{RareDomains, RareSieve};
pub use reduce::{
    reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayReducer, DnsReductionCounts,
    InternalFilter, InternalJudge, ProxyReductionCounts, ReductionConfig,
};
