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
//!   chunk reducers ([`reduce_dns_chunk`] / [`reduce_proxy_chunk`]) whose
//!   partial counters a [`DayReducer`] merges into day totals, and the
//!   per-name [`NameVerdicts`] table both filters read.
//! * [`history`] — incrementally updated histories of external destinations
//!   and user-agent strings.
//! * [`rare`] — "new + unpopular" rare-destination extraction.
//! * [`index`] — the per-day [`DayIndex`] over contacts: host↔domain edges,
//!   per-edge timestamp series, per-domain IPs and HTTP statistics, held as
//!   sorted columns; built incrementally from out-of-order chunks by
//!   [`DayIndexBuilder`] (or from a contact list by [`DayIndex::build`],
//!   which test fixtures use).
//!
//! Every per-name decision — a name's fold, whether it is internal, whether
//! it is an IP literal — is plain data: the single-threaded owner fills the
//! [`FoldTable`] memo and the [`NameVerdicts`] table in a sequential pass
//! over each pushed span, then the chunk-level entry points read them
//! through shared references, with no lock, on parallel workers. The owner
//! merges counters and index state back in chunk order.
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
//! assert_eq!(fold.folded(sym), None, "workers read only warmed folds");
//! let folded = fold.fold(sym);
//! assert_eq!(fold.folded(sym), Some(folded));
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
pub use fold::FoldTable;
pub use history::{DomainHistory, UaHistory};
pub use index::{DayIndex, DayIndexBuilder, EdgeHttp, EdgeKey, Grouped, UnsortedColumn};
pub use normalize::{normalize_proxy_chunk, NormalizationCounts};
pub use rare::{RareDomains, RareSieve};
pub use reduce::{
    reduce_dns_chunk, reduce_proxy_chunk, ChunkReduction, DayReducer, DnsReductionCounts,
    NameVerdicts, ProxyReductionCounts, ReductionConfig,
};
